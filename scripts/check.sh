#!/usr/bin/env bash
# Full repository verification:
#   1. tier-1: configure, build, check that no discovered test name prints
#      a parameter as raw object bytes, run the quick label first (the
#      sub-minute inner loop), then the complete test suite;
#   2. an address+undefined sanitizer build of the library, a set of test
#      binaries (tracer, accounting, kernels, CG, sparse properties, the
#      exchange-round tests, the slab arena, the collectives, their
#      operators and traffic counts, the dense
#      primitives, the vector maps, folds and scans, the naive router
#      baselines, and the mixed inline/fanned-out step sequences, kernel
#      and vector steps and staged rounds under a fault plan) and one
#      benchmark,
#      with the tests re-run under ASan/UBSan;
#   3. one benchmark in --quick mode (plus a --faults rerun), with its
#      BENCH_*.json report and the exported Chrome trace validated against
#      their schemas;
#   4. the perf-regression gate: every bench re-run with the baseline
#      recipe and diffed against bench/baselines/ by scripts/perf_gate.py
#      (simulated values exactly; wall times machine-speed-normalized, with
#      per-case thresholds) — a simulated value that differs, a wall-time
#      regression past threshold, or a baseline case no report has, FAILS
#      the check (the first and the last are also checked on copies with
#      one counter changed and one case removed).  The same sweep's
#      vmp-metrics-v1 sidecars and collapsed-stack exports are
#      schema-validated.
#
# Usage: scripts/check.sh [--no-sanitize] [--quick-only] [--tsan]
#                         [--no-perf-gate]
#
# --tsan adds a ThreadSanitizer build of the whole tree and re-runs the
# quick-label tests under VMP_THREADS=4 while TSan watches the publish/park
# protocol.  Only steps with enough work to fan out (WorkerTeam::fans_out)
# run multi-lane; smaller ones run inline on the host, and the mixed-step
# test (MixedSteps.*) drives both kinds back to back.  Opt-in (it roughly
# doubles the build); CI runs it on every push.
set -euo pipefail

cd "$(dirname "$0")/.."
NO_SANITIZE=0
QUICK_ONLY=0
TSAN=0
NO_PERF_GATE=0
for arg in "$@"; do
  case "$arg" in
    --no-sanitize) NO_SANITIZE=1 ;;
    --quick-only) QUICK_ONLY=1 ;;
    --tsan) TSAN=1 ;;
    --no-perf-gate) NO_PERF_GATE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
echo "-- test names print their parameters --"
# GoogleTest prints a parameter type it has no printer for as raw object
# bytes, struct padding included, so such a ctest name can change from
# build to build.  Every swept type has a PrintTo (tests/param_printers.hpp
# and next to each parameter struct).
raw_names="$(cd build && ctest -N | grep -e '-byte object' || true)"
if [[ -n "$raw_names" ]]; then
  echo "test names print raw parameter bytes; give the type a PrintTo:" >&2
  echo "$raw_names" | head -20 >&2
  exit 1
fi
echo "-- quick label (ctest -L quick) --"
(cd build && ctest -L quick --output-on-failure -j "$(nproc)")
if [[ "$QUICK_ONLY" == 1 ]]; then
  echo "== quick checks passed (skipping the rest: --quick-only) =="
  exit 0
fi
echo "-- full suite --"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== kernel conformance with no SIMD backend compiled (VMP_SIMD=OFF) =="
# The conformance suite just ran against the compiled backend inside the
# tier-1 suite; this leg rebuilds the kernel layer with no backend, so
# every kernel is its scalar loop, and runs the matmul and matvec suites
# on it end to end (the accumulate-rows kernel's scalar path under all
# three of its callers).
cmake -B build-nosimd -S . -DVMP_SIMD=OFF >/dev/null
cmake --build build-nosimd -j --target test_kernels test_matmul_hyper \
  test_matvec >/dev/null
./build-nosimd/tests/test_kernels
./build-nosimd/tests/test_matmul_hyper
./build-nosimd/tests/test_matvec

if [[ "$NO_SANITIZE" == 0 ]]; then
  echo "== sanitizer build (address,undefined) =="
  # -fno-sanitize-recover makes every UBSan report abort its test binary,
  # so a report fails this stage instead of scrolling past.
  cmake -B build-asan -S . -DVMP_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined >/dev/null
  cmake --build build-asan -j --target test_trace test_accounting \
    test_kernels test_cg test_properties_random test_allport_shift \
    test_fault_recovery test_topology test_matmul_hyper test_buffer_pool \
    test_slab test_contracts test_primitives test_exhaustive_small \
    test_collectives test_ops test_stats test_vector_ops test_scan_ops \
    test_naive test_thread_invariance bench_naive_vs_primitive \
    >/dev/null
  ./build-asan/tests/test_trace
  ./build-asan/tests/test_accounting \
    --gtest_filter='Accounting.*:Charging.*:Threading.*'
  # The conformance battery under ASan/UBSan covers every SIMD entry point
  # (unaligned bases, tails, type-erased gathers) in both toggle states.
  ./build-asan/tests/test_kernels
  # The sparse storage paths (CSR tiles, triple exchange, reembed) and the
  # storage-generic CG, under ASan/UBSan.
  ./build-asan/tests/test_cg
  ./build-asan/tests/test_properties_random \
    --gtest_filter='*Sparse*:*Reembed*'
  # The round core under ASan/UBSan: all three round kinds (exchange,
  # exchange_allport, relay), their argument checks, the relabeled Gray
  # shifts against their staged-relay twin, the fault-recovery delivery
  # path (shift legs over the tiles included), the round-, shift- and
  # primitive-charge pins on every topology preset, the hyper-systolic
  # matmul built on those shifts, and the staging-slot reuse checks.
  ./build-asan/tests/test_allport_shift
  ./build-asan/tests/test_fault_recovery
  ./build-asan/tests/test_topology \
    --gtest_filter='*RoundCharges*:*ShiftCharges*:*PrimitiveCharges*'
  ./build-asan/tests/test_matmul_hyper
  ./build-asan/tests/test_buffer_pool
  # The slab arena: tile relabeling (permute_tiles), and the growth, copies,
  # swaps and moves that keep or restore the layout.
  ./build-asan/tests/test_slab
  # Host input validation: malformed CSR triples must be rejected before
  # load_csr reads through rowptr; the primitives' contract table.
  ./build-asan/tests/test_contracts
  # The dense primitive skeletons on both axes: column gathers/scatters and
  # ranged insert windows (the sparse tile kernels run above and in the
  # PrimitiveCharges pins).
  ./build-asan/tests/test_primitives
  ./build-asan/tests/test_exhaustive_small
  # Every collective against its host reference, the two segment
  # pipelines against their one-segment twins and reduce-scatter +
  # all-gather against the doubling on ragged lengths (the per-call tables
  # their rounds read), and each all-reduce backend's charge walk and fold
  # against its staged body (AllreduceTwin; AllreduceFaults runs with
  # test_fault_recovery above).  Then the rank order of every all-reduce
  # backend under a non-commutative operator, and the exact message and
  # element counts of the collectives' rounds.
  ./build-asan/tests/test_collectives
  ./build-asan/tests/test_ops
  ./build-asan/tests/test_stats
  # The vector maps, folds and scans, which run once per piece and write
  # the piece's other replicas from its holder, against the per-processor
  # bodies they replaced (VecPieceTwin), and with host references.
  ./build-asan/tests/test_vector_ops
  ./build-asan/tests/test_scan_ops
  # The naive baselines: one axis-flagged body per primitive against the
  # row and column copies it replaced (NaiveTwin), and the naive router
  # under transient faults and dead links.
  ./build-asan/tests/test_naive
  # Steps above and below the inline cuts back to back at lanes 1-3: the
  # staging step's partial merge and the one-round byte predictor, every
  # collective backend with rounds on both sides of the byte cut, the
  # accumulate-rows kernel fanned out under its three callers, every
  # vector map and fold fanned out with holders writing other lanes'
  # tiles, and staged rounds whose deliveries fan out under a fault plan.
  ./build-asan/tests/test_thread_invariance \
    --gtest_filter='MixedSteps.*:CollectiveSteps.*:KernelSteps.*:VectorSteps.*:FaultSteps.*'
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== thread-sanitizer build: quick label under VMP_THREADS=4 =="
  cmake -B build-tsan -S . -DVMP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j >/dev/null
  (cd build-tsan && VMP_THREADS=4 ctest -L quick --output-on-failure \
    -j "$(nproc)")
fi

echo "== bench smoke: --quick run + report validation =="
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
(cd "$workdir" && "$OLDPWD"/build/bench/bench_naive_vs_primitive --quick)
(cd "$workdir" && "$OLDPWD"/build/bench/bench_gauss --quick)
(cd "$workdir" && "$OLDPWD"/build/bench/bench_primitives --quick --dims=4 \
  --sizes=64)
# The same primitives under the standard transient fault plan: recovery
# must stay within budget and the report must carry fault attribution.
(cd "$workdir" && "$OLDPWD"/build/bench/bench_primitives --quick --dims=4 \
  --sizes=64 --faults --json=BENCH_bench_primitives_faults.json)

python3 - "$workdir" <<'EOF'
import json, math, sys
from pathlib import Path

workdir = Path(sys.argv[1])

def require(cond, msg):
    if not cond:
        raise SystemExit(f"schema check failed: {msg}")

def check_profile(p, where):
    require(p["schema"] == "vmp-profile-v1", f"{where}: profile schema")
    require({"name", "startup_us", "per_elem_us", "flop_us",
             "router_startup_us"} <= p["cost_model"].keys(),
            f"{where}: cost_model keys")
    t = p["totals"]
    for k in ("now_us", "comm_us", "compute_us", "router_us", "host_us",
              "comm_steps", "messages", "elements_moved", "flops_charged",
              "router_hops", "fault_retries", "fault_chksum_fails",
              "fault_reroutes", "alloc_bytes", "pool_hits", "pool_misses"):
        require(k in t, f"{where}: totals.{k}")
    # Conservation: region self buckets must sum to the global totals.
    sums = {k: 0.0 for k in ("comm_us", "compute_us", "router_us", "host_us")}
    for r in p["regions"]:
        require({"path", "self", "total"} <= r.keys(), f"{where}: region keys")
        for k in sums:
            sums[k] += r["self"][k]
    for k, v in sums.items():
        require(math.isclose(v, t[k], rel_tol=1e-9, abs_tol=1e-9),
                f"{where}: region {k} sum {v} != total {t[k]}")
    require(math.isclose(sum(sums.values()), t["now_us"],
                         rel_tol=1e-9, abs_tol=1e-9),
            f"{where}: bucket sums != now_us")

benches = sorted(workdir.glob("BENCH_*.json"))
require(benches, "no BENCH_*.json written")
for path in benches:
    d = json.loads(path.read_text())
    require(d["schema"] == "vmp-bench-v1", f"{path.name}: bench schema")
    require({"seed", "faults"} <= d.keys(), f"{path.name}: seed/faults keys")
    require(d["cases"], f"{path.name}: no cases")
    for case in d["cases"]:
        require({"name", "args", "wall_ms", "counters"} <= case.keys(),
                f"{path.name}: case keys")
        for key, prof in case.get("profiles", {}).items():
            check_profile(prof, f"{path.name}:{case['name']}:{key}")
    print(f"  {path.name}: {len(d['cases'])} cases ok")

# The naive-vs-primitive report must show the router/comm contrast.
nvp = json.loads((workdir / "BENCH_bench_naive_vs_primitive.json").read_text())
for case in nvp["cases"]:
    naive, fast = case["profiles"]["naive"], case["profiles"]["fast"]
    require(naive["totals"]["router_us"] > 0,
            f"{case['name']}: naive side must pay router time")
    require(fast["totals"]["router_us"] == 0,
            f"{case['name']}: optimized side must not use the router")
    require(fast["totals"]["comm_us"] + fast["totals"]["compute_us"] > 0,
            f"{case['name']}: optimized side must pay comm/compute")
print("  naive-vs-primitive router/comm contrast ok")

# Zero-allocation steady state: the primitive bench hot loop must be pure
# pool hits once the staging slots are warm (no --faults here; retries are
# allowed to stage recovery scratch).
prim = json.loads((workdir / "BENCH_bench_primitives.json").read_text())
pool_cases = [c for c in prim["cases"] if c["name"] == "pool_steady_state"]
require(pool_cases, "bench_primitives: no pool_steady_state case")
for case in pool_cases:
    cnt = case["counters"]
    require(cnt["pool_misses"] == 0,
            f"pool_steady_state: {cnt['pool_misses']} steady-state misses")
    require(cnt["pool_hits"] > 0, "pool_steady_state: no pool hits recorded")
print("  bench_primitives steady-state pool hits == 100% ok")

trace = json.loads((workdir / "gauss_trace.json").read_text())
xs = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
ts = [e["ts"] for e in xs]
require(ts and ts == sorted(ts), "gauss_trace.json: ts not monotone")
print(f"  gauss_trace.json: {len(xs)} events, monotone ok")
EOF

if [[ "$NO_PERF_GATE" == 0 ]]; then
  echo "== perf-regression gate: bench sweep vs bench/baselines =="
  # Re-run every bench with the exact recipe scripts/record_baselines.sh
  # uses to record the committed baselines, with --metrics on so the sweep
  # also exercises the metrics layer end to end.  scripts/perf_gate.py then
  # matches cases by name+args, normalizes out machine speed, and FAILS on
  # any case or bench past its threshold (bench/baselines/thresholds.json).
  # Two sweeps: the gate judges each case on its minimum wall time across
  # them (noise only inflates single-trial timings, so min-of-2 is the
  # robust statistic).  Only the first carries --metrics.
  GATE_BENCHES=(bench_ablation bench_collectives bench_gauss bench_kernels
                bench_matmul bench_matvec bench_naive_vs_primitive
                bench_primitives bench_scaling bench_simplex bench_spmv)
  for b in "${GATE_BENCHES[@]}"; do
    (cd "$workdir" && "$OLDPWD/build/bench/$b" \
        --quick --trials=3 --warmup=1 --metrics \
        --json="GATE_${b}.json" > /dev/null)
    (cd "$workdir" && "$OLDPWD/build/bench/$b" \
        --quick --trials=3 --warmup=1 \
        --json="GATE2_${b}.json" > /dev/null)
  done

  # The sweep ran with --metrics: every report must carry embedded
  # vmp-metrics-v1 snapshots plus a METRICS_*.json series sidecar, and
  # bench_gauss must export its collapsed flame stacks.
  python3 - "$workdir" <<'EOF'
import json, sys
from pathlib import Path

workdir = Path(sys.argv[1])

def require(cond, msg):
    if not cond:
        raise SystemExit(f"metrics check failed: {msg}")

def check_snapshot(doc, where):
    require(doc["schema"] == "vmp-metrics-v1", f"{where}: schema")
    require(doc["kind"] == "snapshot", f"{where}: kind")
    require(doc["metrics"], f"{where}: empty metrics")
    names = {m["name"] for m in doc["metrics"]}
    require("engine.steps" in names, f"{where}: engine.steps missing")
    for m in doc["metrics"]:
        require(m["class"] in ("sim", "wall"), f"{where}: class {m['class']}")

for path in sorted(workdir.glob("GATE_*.json")):
    d = json.loads(path.read_text())
    require(d.get("metrics") is True, f"{path.name}: metrics flag not set")
    with_snap = [c for c in d["cases"] if "metrics" in c]
    require(with_snap, f"{path.name}: no case embeds a metrics snapshot")
    for c in with_snap:
        check_snapshot(c["metrics"], f"{path.name}:{c['name']}")
    series_path = workdir / path.name.replace("GATE_", "METRICS_")
    require(series_path.exists(), f"{series_path.name}: sidecar missing")
    series = json.loads(series_path.read_text())
    require(series["schema"] == "vmp-metrics-v1" and
            series["kind"] == "series", f"{series_path.name}: series header")
    require(len(series["samples"]) == len(with_snap),
            f"{series_path.name}: sample count != instrumented cases")
    for s in series["samples"]:
        check_snapshot(s["snapshot"], f"{series_path.name}:{s['label']}")
    print(f"  {path.name}: {len(with_snap)} metric snapshots + series ok")

flame = workdir / "gauss_flame.collapsed"
require(flame.exists(), "gauss_flame.collapsed not written")
lines = flame.read_text().splitlines()
require(lines, "gauss_flame.collapsed empty")
for ln in lines:
    stack, _, n = ln.rpartition(" ")
    require(stack and n.isdigit(), f"bad collapsed line: {ln!r}")
print(f"  gauss_flame.collapsed: {len(lines)} stacks ok")
EOF

  python3 scripts/perf_gate.py "$workdir" --prefix=GATE_ --prefix=GATE2_

  # A baseline case that no current report has must fail the gate by name:
  # rerun it on copies of the first sweep's reports with one case of
  # bench_kernels removed.
  negdir="$workdir/missing_case"
  mkdir "$negdir"
  cp "$workdir"/GATE_*.json "$negdir"/
  dropped="$(python3 -c '
import json, sys
path = sys.argv[1]
d = json.loads(open(path).read())
gone = d["cases"].pop(0)
open(path, "w").write(json.dumps(d))
print("bench_kernels/" + gone["name"] + "/")
' "$negdir/GATE_bench_kernels.json")"
  if python3 scripts/perf_gate.py "$negdir" --prefix=GATE_ \
      > "$negdir/gate.txt"; then
    echo "perf gate passed although ${dropped} is missing" >&2
    exit 1
  fi
  if ! grep -qF -- "- ${dropped}" "$negdir/gate.txt"; then
    cat "$negdir/gate.txt" >&2
    echo "perf gate failed without naming ${dropped}" >&2
    exit 1
  fi
  echo "  perf gate fails on the missing case ${dropped} ok"

  # A simulated value off its baseline by one unit must fail the gate,
  # naming the case and the field: rerun it on copies of the first sweep's
  # reports with one sim_* counter of bench_gauss raised by one.
  simdir="$workdir/changed_sim"
  mkdir "$simdir"
  cp "$workdir"/GATE_*.json "$simdir"/
  changed="$(python3 -c '
import json, sys
path = sys.argv[1]
d = json.loads(open(path).read())
case = next(c for c in d["cases"]
            if any(k.startswith("sim_") for k in c["counters"]))
name = min(k for k in case["counters"] if k.startswith("sim_"))
case["counters"][name] += 1
open(path, "w").write(json.dumps(d))
args = "".join("/" + k + "=" + str(v) for k, v in sorted(case["args"].items()))
print("bench_gauss/" + case["name"] + args + " counters." + name)
' "$simdir/GATE_bench_gauss.json")"
  if python3 scripts/perf_gate.py "$simdir" --prefix=GATE_ \
      > "$simdir/gate.txt"; then
    echo "perf gate passed although ${changed} changed" >&2
    exit 1
  fi
  if ! grep -qF -- "- ${changed}: baseline" "$simdir/gate.txt"; then
    cat "$simdir/gate.txt" >&2
    echo "perf gate failed without naming ${changed}" >&2
    exit 1
  fi
  echo "  perf gate fails on the changed value ${changed} ok"
else
  echo "== perf-regression gate skipped (--no-perf-gate) =="
fi

echo "== all checks passed =="
