#!/usr/bin/env python3
"""Self-test of the whole-solve benchmark, at reduced problem sizes.

    python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then checks that:
  * every workload passes its output checks;
  * a deliberately perturbed result (one element of x or C) is counted as
    a failure;
  * sim_ms and every deterministic per-layer metric match between 1 and 2
    lanes;
  * the traced run prints exactly the per-layer metrics BENCHMARK.json
    names, with a measured value for each one that applies to the workload.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["lu_cube", "cg_mesh", "mm_dragonfly"]
OUT_DIR = os.path.join(run.OUT_DIR, "selftest")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

# Per-layer metrics that are pure functions of the simulated machine.
DETERMINISTIC = sorted(
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes", "sim_ms") and name != "hypercube.lane_parks"
) + ["net.hops_per_message", "comm.bcast_regret", "comm.allreduce_regret",
     "algorithms.model_error"]

# Layers each workload's solve does not use (README.md, per-layer table).
NOT_APPLICABLE = {
    "lu_cube": {
        "comm.shift_rounds", "embed.load_csr_ms", "embed.to_host_ms",
        "embed.realign_us", "algorithms.cg_ms", "algorithms.iterations",
        "algorithms.matmul_ms", "algorithms.select_ms",
        "algorithms.model_error"},
    "cg_mesh": {
        "hypercube.host_barrier_ms", "hypercube.lane_parks",
        "hypercube.serial_solve_ms", "comm.shift_rounds", "embed.load_ms",
        "embed.to_host_ms", "core.extract_us", "core.insert_us",
        "core.distribute_us", "core.reduce_us", "algorithms.lu_factor_ms",
        "algorithms.lu_solve_ms", "algorithms.matmul_ms",
        "algorithms.select_ms", "algorithms.model_error"},
    "mm_dragonfly": {
        "comm.bcast_regret", "comm.allreduce_regret", "embed.load_csr_ms",
        "embed.realign_us", "core.extract_us", "core.insert_us",
        "core.distribute_us", "core.reduce_us", "algorithms.lu_factor_ms",
        "algorithms.lu_solve_ms", "algorithms.cg_ms",
        "algorithms.iterations"},
}
# Applicable metrics whose correct value today may be 0.
MAY_BE_ZERO = {"hypercube.pool_misses", "hypercube.alloc_bytes",
               "hypercube.lane_parks", "algorithms.model_error",
               "obs.trace_overhead_pct"}

_cache = {}


def bench(workload, trace, *extra):
    """Run the binary at reduced sizes; (exit code, result, report)."""
    key = (workload, trace) + extra
    if key not in _cache:
        cmd = [run.BINARY, "--workload", workload, "--seed", "7",
               "--seconds", "0.2", "--trace", str(trace), "--small",
               "--out-dir", OUT_DIR, *extra]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        stem = f"{workload}-seed7-small-trace{trace}.json"
        with open(os.path.join(OUT_DIR, stem)) as f:
            report = json.load(f)
        _cache[key] = (r.returncode, result, report)
    return _cache[key]


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        os.makedirs(OUT_DIR, exist_ok=True)

    def test_every_workload_passes_its_checks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, report = bench(w, 0)
                self.assertEqual(code, 0, report["failures"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 6)
                # --small runs two rounds, each a process with its own
                # set-up and footprint.
                self.assertEqual(report["metrics"]["rounds"]["value"], 2)
                self.assertEqual(len(report["setup_s"]), 2)
                self.assertEqual(len(report["peak_rss_mb"]), 2)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    END_TO_END)
                self.assertEqual(values(result)["pass_frac"], 1.0)

    def test_perturbed_result_raises_fail_frac(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, report = bench(w, 0, "--perturb")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(report["metrics"]["fail_frac"]["value"], 1.0)
                self.assertEqual(values(result)["pass_frac"], 0.0)

    def test_sim_and_counts_match_between_one_and_two_lanes(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, one, _ = bench(w, 0, "--lanes", "1")
                _, two, _ = bench(w, 0, "--lanes", "2")
                self.assertTrue(one["correct"] and two["correct"])
                self.assertEqual(values(one)["sim_ms"], values(two)["sim_ms"])
                _, tone, _ = bench(w, 1, "--lanes", "1")
                _, ttwo, _ = bench(w, 1, "--lanes", "2")
                self.assertTrue(tone["correct"] and ttwo["correct"])
                for m in DETERMINISTIC:
                    self.assertEqual(values(tone)[m], values(ttwo)[m], m)

    def test_traced_run_prints_every_layer_metric_that_applies(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, report = bench(w, 1)
                self.assertEqual(code, 0, report["failures"])
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    PER_LAYER)
                self.assertEqual(set(report["not_applicable"]),
                                 NOT_APPLICABLE[w])
                for name, v in values(result).items():
                    if name in NOT_APPLICABLE[w]:
                        self.assertEqual(v, 0, name)
                    elif name not in MAY_BE_ZERO:
                        self.assertGreater(v, 0, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
