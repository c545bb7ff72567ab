#!/usr/bin/env python3
"""Run one workload of the vmprim whole-solve benchmark.

    python3 perfbench/run.py --workload lu_cube --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (and the vmprim library it links) into .bench_build/perfbench;
later runs only bring that build up to date.  The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; build output and
diagnostics go to stderr.  Reports, spans and simulated profiles are written
to .bench_out/.  Arguments after the four above (--lanes, --small,
--perturb) are passed to the benchmark binary.
See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then update the binary.  True on success."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_digest():
    """sha256 over the library's sources, so results name the code they
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["lu_cube", "cg_mesh", "mm_dragonfly"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, passthrough = p.parse_known_args()

    if not build():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--source-digest", source_digest(),
           "--git-commit", git_commit()] + passthrough
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
