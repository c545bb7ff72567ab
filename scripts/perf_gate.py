#!/usr/bin/env python3
"""Perf-regression gate over vmp-bench-v1 reports, on both clocks.

Compares freshly measured bench reports against the committed baselines in
bench/baselines/ and FAILS (exit 1) when a simulated value differs from its
baseline, or when a case or a bench regresses past its wall-clock
threshold.  Usage:

    scripts/perf_gate.py WORKDIR [--prefix=GATE_] [--baselines=DIR]
                         [--thresholds=FILE] [--verbose]

WORKDIR holds the current reports, named <prefix><bench>.json (the prefix
keeps gate sweeps apart from ad-hoc BENCH_*.json runs in the same
directory).  Cases are matched on (case name, args).  A case only the
current reports have (a new one) does not participate, so adding a bench
case does not require re-recording every baseline.  A baseline case that no
current report has FAILS the gate, by name: a removed or renamed case would
otherwise shrink the gate without notice.

Simulated clock: exact.  In every matched case of every current report,
each `sim_*` counter and each profile `totals` field of the baseline must
equal the current value: the simulated clock is deterministic at any
thread count, SIMD state or repeat, so any difference is a charge change,
and re-recording the baselines is the way to accept one.  The pool fields
(POOL_FIELDS) are left out: they count the host's buffer-pool traffic,
which depends on the pool's history, not on the simulated machine.  The
simulated verdict prints on its own line, whatever the wall gate says.

Machine-speed normalization: baselines are recorded on SOME machine, the
gate runs on ANOTHER (a CI runner, a laptop).  The gate therefore computes
one global speed factor — the median of per-case wall-clock ratios
current/baseline across every matched case — and judges each case by its
NORMALIZED ratio (raw ratio / speed factor).  A uniformly slower machine
moves the median, not the verdicts; a case that regressed relative to its
peers sticks out regardless of the hardware.  The flip side, by
construction: a perfectly uniform slowdown of every case at once is
indistinguishable from a slower machine and will not trip the gate — that
is what the bench-level check and the committed baselines' provenance are
for.

Thresholds come from bench/baselines/thresholds.json:

    {
      "default":  {"case_ratio": 1.75, "bench_ratio": 1.6,
                   "min_case_ms": 1.0, "min_bench_ms": 1.0},
      "benches":  {"bench_gauss": {"case_ratio": 2.0}},
      "cases":    {"bench_primitives/pool_steady_state/dim=8":
                   {"case_ratio": 3.0}}
    }

Lookup is case -> bench -> default; cases (bench totals) whose baseline
wall time is below min_case_ms (min_bench_ms) are reported but never gate
(sub-millisecond timings on shared runners are noise, and the repo's
dispatch-latency budget is enforced by its own bench + docs/perf.md, not
by this gate).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULTS = {"case_ratio": 1.75, "bench_ratio": 1.6, "min_case_ms": 1.0,
            "min_bench_ms": 1.0}
POOL_FIELDS = {"alloc_bytes", "pool_hits", "pool_misses", "slab_allocs",
               "slab_bytes"}
RERECORD_HINT = ("re-record with scripts/record_baselines.sh and commit the "
                 "new baselines")


def case_key(case):
    return (case["name"], tuple(sorted(case["args"].items())))


def case_label(bench, case):
    args = "/".join(f"{k}={v}" for k, v in sorted(case["args"].items()))
    return f"{bench}/{case['name']}" + (f"/{args}" if args else "")


def sim_values(case):
    """The case's exactly gated values by field name: its sim_* counters
    and every profile total but the pool fields."""
    vals = {f"counters.{k}": v for k, v in case["counters"].items()
            if k.startswith("sim_")}
    for key, prof in case.get("profiles", {}).items():
        for k, v in prof["totals"].items():
            if k not in POOL_FIELDS:
                vals[f"profiles.{key}.totals.{k}"] = v
    return vals


def load_thresholds(path):
    spec = {"default": dict(DEFAULTS), "benches": {}, "cases": {}}
    if path.exists():
        loaded = json.loads(path.read_text())
        spec["default"].update(loaded.get("default", {}))
        spec["benches"] = loaded.get("benches", {})
        spec["cases"] = loaded.get("cases", {})
    return spec


def threshold(spec, bench, label, key):
    for scope in (spec["cases"].get(label, {}),
                  spec["benches"].get(bench, {}),
                  spec["default"]):
        if key in scope:
            return scope[key]
    return DEFAULTS[key]


def wall_gate(spec, matched, verbose):
    """Judge the machine-speed-normalized wall times; True when none is
    past its threshold."""
    if not matched:
        print("perf gate (wall clock): FAIL — no cases matched any baseline")
        return False

    # Speed factor over the gated (>= min_case_ms) cases only — the
    # sub-millisecond cases are exactly the noisy ones.
    sized = [(bench, label, b, c) for bench, label, b, c in matched
             if b >= threshold(spec, bench, label, "min_case_ms")]
    speed = statistics.median(c / b for _, _, b, c in (sized or matched))

    failures = []
    rows = []
    per_bench = {}
    for bench, label, b_ms, c_ms in matched:
        ratio = c_ms / b_ms
        norm = ratio / speed
        limit = threshold(spec, bench, label, "case_ratio")
        min_ms = threshold(spec, bench, label, "min_case_ms")
        gated = b_ms >= min_ms
        ok = (not gated) or norm <= limit
        rows.append((label, b_ms, c_ms, norm, limit, gated, ok))
        agg = per_bench.setdefault(bench, [0.0, 0.0])
        agg[0] += b_ms
        agg[1] += c_ms
        if not ok:
            failures.append(label)

    for bench, (b_ms, c_ms) in sorted(per_bench.items()):
        norm = (c_ms / b_ms) / speed
        limit = threshold(spec, bench, "", "bench_ratio")
        gated = b_ms >= threshold(spec, bench, "", "min_bench_ms")
        ok = (not gated) or norm <= limit
        if not ok:
            failures.append(f"{bench} (bench total)")
        mark = "ok  " if ok else "FAIL"
        note = "" if gated else "  (below min_bench_ms, informational)"
        print(f"  {mark} {bench:<28} baseline {b_ms:9.2f} ms -> current "
              f"{c_ms:9.2f} ms  normalized x{norm:5.2f} "
              f"(limit x{limit:.2f}){note}")

    shown = [r for r in rows if verbose or not r[6]]
    if shown:
        print(f"  {'case':<52} {'base ms':>9} {'cur ms':>9} "
              f"{'norm':>6} {'limit':>6}")
        for label, b_ms, c_ms, norm, limit, gated, ok in shown:
            mark = "ok  " if ok else "FAIL"
            note = "" if gated else "  (below min_case_ms, informational)"
            print(f"  {mark} {label:<47} {b_ms:9.2f} {c_ms:9.2f} "
                  f"x{norm:5.2f} x{limit:4.2f}{note}")

    n_gated = sum(1 for r in rows if r[5])
    print(f"perf gate (wall clock): {len(matched)} matched cases "
          f"({n_gated} gated), machine-speed factor x{speed:.2f}")
    if failures:
        print("perf gate (wall clock): FAIL — regressions past threshold:")
        for f in failures:
            print(f"  - {f}")
        print("(if intentional — e.g. an accepted trade-off — "
              f"{RERECORD_HINT})")
        return False
    print("perf gate (wall clock): ok")
    return True


def sim_gate(n_values, n_cases, diffs):
    """Print the exact simulated verdict; True when nothing differs."""
    if diffs:
        print(f"perf gate (simulated): FAIL — {len(diffs)} of {n_values} "
              "values differ from the baselines:")
        for label, field, b, c, report in diffs:
            print(f"  - {label} {field}: baseline {b}, current {c} "
                  f"({report})")
        print(f"(a charge change is accepted only this way: {RERECORD_HINT})")
        return False
    print(f"perf gate (simulated): ok — {n_values} values in {n_cases} "
          "matched cases equal the baselines")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--prefix", action="append", default=None,
                    help="report-name prefix; repeatable — with several "
                         "prefixes each case is judged on its MINIMUM wall "
                         "time across the sweeps (noise only inflates "
                         "timings, so min-of-N is the robust statistic), "
                         "and on its simulated values in every sweep. "
                         "Default: GATE_")
    ap.add_argument("--baselines", type=Path, default=Path("bench/baselines"))
    ap.add_argument("--thresholds", type=Path, default=None)
    ap.add_argument("--verbose", action="store_true",
                    help="print every matched case, not just failures")
    args = ap.parse_args()
    prefixes = args.prefix or ["GATE_"]
    thresholds_path = args.thresholds or args.baselines / "thresholds.json"
    spec = load_thresholds(thresholds_path)

    baselines = sorted(args.baselines.glob("BENCH_*.json"))
    if not baselines:
        print(f"perf gate: no baselines under {args.baselines} — nothing to "
              "gate (record them with scripts/record_baselines.sh)")
        return 0

    # Match every baseline case to the current reports: collect the wall
    # times for the machine-speed factor, and compare the simulated values.
    matched = []  # (bench, label, base_ms, min cur_ms)
    missing_current = []
    unmatched = []  # labels of baseline cases no current report has
    n_cases = 0
    n_values = 0
    diffs = []  # (label, field, base value, current value, report name)
    for base_path in baselines:
        bench = base_path.stem.removeprefix("BENCH_")
        cur_paths = [p for prefix in prefixes
                     if (p := args.workdir / f"{prefix}{bench}.json").exists()]
        if not cur_paths:
            missing_current.append(bench)
            continue
        base = json.loads(base_path.read_text())
        reports = [(p.name, {case_key(c): c
                             for c in json.loads(p.read_text())["cases"]})
                   for p in cur_paths]
        for bc in base["cases"]:
            label = case_label(bench, bc)
            found = [(name, cases[case_key(bc)]) for name, cases in reports
                     if case_key(bc) in cases]
            if not found:
                unmatched.append(label)
                continue
            n_cases += 1
            want = sim_values(bc)
            for name, cc in found:
                got = sim_values(cc)
                n_values += len(want)
                diffs += [(label, field, b, got.get(field, "missing"), name)
                          for field, b in want.items()
                          if got.get(field, "missing") != b]
            if bc["wall_ms"] > 0.0:
                matched.append((bench, label, bc["wall_ms"],
                                min(cc["wall_ms"] for _, cc in found)))
    ok = True
    if missing_current:
        print("perf gate: FAIL — baselines exist but no current report for: "
              + ", ".join(missing_current))
        ok = False
    if unmatched:
        print("perf gate: FAIL — baseline cases that no current report has:")
        for label in unmatched:
            print(f"  - {label}")
        print(f"({RERECORD_HINT})")
        ok = False
    ok = wall_gate(spec, matched, args.verbose) and ok
    ok = sim_gate(n_values, n_cases, diffs) and ok
    print("perf gate: ok" if ok else "perf gate: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
