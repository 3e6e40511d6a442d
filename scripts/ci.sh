#!/usr/bin/env bash
# Tier-1 CI: configure with warnings-as-errors on every first-party target,
# build everything, run the tiered test suite, then exercise the experiment
# runner end to end:
#   * the tier1 ctest label (fast tests, every suite) right after the
#     build, failing if any test reports a skip, then one dedicated
#     full-suite stage that adds the slow tier (the 200-seed POR/naive
#     equivalence sweep, the fault-matrix litmus sweep);
#   * a cold-vs-warm armbar-bench pair against a fresh cache dir, asserting
#     the warm (fully memoized) re-run finishes in < 20% of the cold wall
#     time;
#   * the same filter warm with --json: every point must come from the
#     cache (cache_point_hits == sim_points per experiment, so observing a
#     run re-simulates nothing), and the cached counters and histograms must
#     equal a --no-cache --json run's;
#   * a consolidated multi-experiment --json report validated by
#     report_check;
#   * the sim_perf budget experiment: host_prof per-phase timings plus
#     per-preset throughput metrics must be present, and the self-relative
#     ips_vs_null gate (sim instr/s over an in-process null-interpreter
#     baseline, so host speed cancels) must hold; armbar-perf then diffs
#     the fresh report against the committed baseline, and a second
#     armbar-perf pass gates every per-preset throughput at >= 3x the
#     frozen PR-6 (pre-fast-path) report;
#   * the fresh-machine gate from the same sim_perf report: a fresh 64 MiB
#     machine's whole life (construct, load, run, destroy) must stay within
#     4x its run on every preset;
#   * a bit-identity gate: all 18 figure/table experiments' points digests,
#     and cna_scaling's (the one simulated lock no figure covers), must
#     match the pinned baseline exactly, and so must the per-experiment
#     digests of the counters and histograms the same --json report
#     carries;
#   * a --profile smoke: the profiled report validates and carries
#     host_prof, and every points digest is bit-identical to the
#     unprofiled run (profiling never perturbs results);
#   * a step gate: a profiled --no-cache fig5_load_store run must retire
#     its instructions in under 10% as many core steps (sim.steps), which
#     only holds while untraced NOP runs retire in one step;
#   * a lane gate: a profiled --no-cache fig8a_queue_stack run must make
#     fewer than 10% as many scheduler heap pushes (sim.heap_pushes) as
#     core steps, which only holds while a core rescheduled within the next
#     63 cycles goes into the scheduler's wheel;
#   * a run-ahead gate: a profiled --no-cache fig7b_delegation run must take
#     fewer core steps than it retires instructions, which only holds while
#     a store behind an unresolved DMB st gate sleeps to its event horizon
#     and core-local instructions issue ahead of the sweep;
#   * the model_perf experiment gating the POR checker >= 5x faster than
#     the naive oracle on the co-heavy deep-MP shape (report-validated,
#     speedup read back out of the JSON);
#   * a single-experiment run (armbar-bench --filter fig3_store_store
#     --json --trace): the report validates, is named after the
#     experiment and carries >= 3 latency histograms, and the Chrome
#     trace parses with a non-empty traceEvents array;
#   * trace_explorer's span-accounting self-check;
#   * a malformed-argument smoke: one bad value for each binary that takes
#     options or counts must exit 2 with a message naming the option;
#   * a fault-injected consolidated run (--fault-seed) whose report must
#     still validate, carry per-experiment status params and an (empty)
#     quarantine array;
#   * a bounded differential-fuzz smoke (armbar-fuzz, fixed seeds, plus
#     seeds 351 and 437, which once deadlocked a halted core) that
#     must find zero model/simulator mismatches and emit a valid
#     armbar.bench.report/v2 with campaign/model throughput metrics and
#     (the 48-seed campaign runs with --profile) a host_prof section,
#     summed over the pool's exited worker threads, that counts one
#     fuzz.generate and one fuzz.diff scope per seed and as many sim.runs
#     and model.executions as the report's sim_runs and model_candidates,
#     followed by a planted-bug stage: a dropped-fence mutation must be
#     caught, minimized, bundled, and the bundle must replay bit-exactly
#     through armbar-repro;
#   * a lock-verification smoke (armbar-lockver: all six clean lock
#     variants over the full axiomatic + sim grid, zero bundles) plus the
#     lock_verify experiment report (18/18 planted bugs caught), followed
#     by a planted lock-bug stage: a dropped release edge in the weakened
#     CNA handoff must fail verification, produce a lock_invariant bundle,
#     and replay bit-exactly through armbar-repro;
#   * the barrier_opt experiment (ISSUE 10): every accepted rewrite
#     oracle-verified, >= 1 barrier eliminated on MP+dmb.full with
#     positive simulated cycles saved on every platform preset, Table-3
#     parity on all three lock families, and the armbar.opt.report/v1
#     section arithmetically consistent; an armbar-opt CLI smoke whose
#     report must validate; and a planted-unsoundness stage where an
#     illegal rewrite injected *bypassing* the oracle must be caught by
#     the final verification (exit 1 = caught is the only pass);
#   * an ASan+UBSan build running the full test suite — including the
#     slow tier, so the equivalence sweep runs sanitized — plus a faulted
#     armbar-bench smoke;
#   * a ThreadSanitizer build of test_runner alone (the thread pool, the
#     cache and the engine at --jobs > 1), where any report fails the stage.
#
#   $ scripts/ci.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-ci}"

echo "== configure (${BUILD}, Release, ARMBAR_WERROR=ON) =="
# Release, not the RelWithDebInfo default: the perf gates below compare
# against baselines captured at -O3, and -O2 penalizes the interpreter's
# hot loop ~25% while (by inlining luck) speeding up the null-interpreter
# microloop — skewing the self-relative ips_vs_null ratio by ~1.7x. Perf
# claims are about the optimized build; tests pass under both configs
# (the sanitizer stage below still exercises a non-Release config).
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DARMBAR_WERROR=ON > /dev/null

echo "== build =="
cmake --build "$BUILD" -j"$(nproc)"

echo "== tests (tier1 label, no skips) =="
ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j"$(nproc)" \
  | tee "$BUILD/tier1.log"
# gtest's [  SKIPPED ] maps to ctest's "(Skipped)" (SKIP_REGULAR_EXPRESSION,
# set by gtest_discover_tests); the default build must run every test.
if grep -q '(Skipped)' "$BUILD/tier1.log"; then
  echo "FAIL: tier1 tests skipped in the default build:" >&2
  grep '(Skipped)' "$BUILD/tier1.log" >&2
  exit 1
fi

echo "== tests (full suite incl. slow tier) =="
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

BENCH="$BUILD/bench/armbar-bench"
SMOKE_DIR="$BUILD/ci-reports"
CACHE_DIR="$BUILD/ci-armbar-cache"
mkdir -p "$SMOKE_DIR"
rm -rf "$CACHE_DIR"

# Simulator-only experiments for the timing gate (no host wall-clock parts,
# so the cold run is all cacheable simulation).
GATE_FILTER='fig5*,fig7a*'

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

echo "== armbar-bench cold run (--filter '$GATE_FILTER', --jobs $(nproc)) =="
T0=$(now_ms)
"$BENCH" --filter "$GATE_FILTER" --jobs "$(nproc)" \
    --cache-dir "$CACHE_DIR" > /dev/null
COLD_MS=$(( $(now_ms) - T0 ))

echo "== armbar-bench warm run (same filter, memoized) =="
T0=$(now_ms)
"$BENCH" --filter "$GATE_FILTER" --jobs "$(nproc)" \
    --cache-dir "$CACHE_DIR" > /dev/null
WARM_MS=$(( $(now_ms) - T0 ))

echo "cold ${COLD_MS} ms, warm ${WARM_MS} ms"
if [ $(( WARM_MS * 5 )) -ge "$COLD_MS" ]; then
    echo "FAIL: warm re-run (${WARM_MS} ms) not under 20% of cold (${COLD_MS} ms)"
    exit 1
fi
echo "warm-cache gate OK (warm < 20% of cold)"

echo "== warm --json run (metrics read from the cache, nothing re-simulated) =="
# Deterministic checks only: a warm --json run of this filter takes ~10 ms,
# too short for a meaningful wall-clock ratio.
"$BENCH" --filter "$GATE_FILTER" --jobs "$(nproc)" --cache-dir "$CACHE_DIR" \
    --json="$SMOKE_DIR/warm-json.report.json" > /dev/null
"$BENCH" --filter "$GATE_FILTER" --jobs "$(nproc)" --no-cache \
    --json="$SMOKE_DIR/nocache-json.report.json" > /dev/null
python3 - "$SMOKE_DIR/warm-json.report.json" \
    "$SMOKE_DIR/nocache-json.report.json" <<'EOF'
import json, sys
warm = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))
m = warm["metrics"]
points = {k[:-len("/sim_points")]: v for k, v in m.items()
          if k.endswith("/sim_points")}
assert points, "warm --json report carries no sim_points"
resim = sorted(e for e, n in points.items() if m[e + "/cache_point_hits"] != n)
assert not resim, f"warm --json run re-simulated points of {resim}"
host = ("/wall_ms", "/cache_point_hits")
observed = lambda d: ({k: v for k, v in d["metrics"].items()
                       if not k.endswith(host)}, d["histograms"])
assert warm["histograms"], "warm --json report carries no histograms"
assert observed(warm) == observed(fresh), \
    "cached counters/histograms differ from a --no-cache --json run"
print(f"warm --json OK ({sum(points.values()):.0f} points, all cache hits; "
      f"{len(warm['histograms'])} histograms equal a --no-cache run's)")
EOF

echo "== consolidated report (--filter 'table*' --json) =="
"$BENCH" --filter 'table*' --jobs "$(nproc)" --cache-dir "$CACHE_DIR" \
    --json="$SMOKE_DIR/armbar-bench.report.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/armbar-bench.report.json"

echo "== sim_perf budget experiment (host_prof + self-relative ips gate) =="
"$BENCH" --filter 'sim_perf*' --no-cache \
    --json="$SMOKE_DIR/BENCH_sim_perf.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/BENCH_sim_perf.json"
python3 - "$SMOKE_DIR/BENCH_sim_perf.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], "sim_perf experiment failed"
hp = doc.get("host_prof")
assert hp and hp.get("phases"), "sim_perf report missing host_prof phases"
m = doc["metrics"]
presets = ("rpi4", "kirin960", "kirin970", "kunpeng916")
for preset in presets:
    assert m.get(f"{preset}_mp_ips", 0) > 0, f"missing {preset}_mp_ips"
    assert m.get(f"{preset}_deep_ips", 0) > 0, f"missing {preset}_deep_ips"
    fresh = m.get(f"{preset}_fresh_overhead", 0)
    assert 0 < fresh <= 4.0, f"{preset}_fresh_overhead {fresh:.2f} not in (0, 4]"
assert m["ips_vs_null"] >= 8e-3, \
    f"ips_vs_null {m['ips_vs_null']:.4f} below the fast-path floor 0.008"
worst = max(m[f"{p}_fresh_overhead"] for p in presets)
print(f"sim_perf OK ({m['sim_ips'] / 1e6:.2f} M sim instr/s, "
      f"ips_vs_null {m['ips_vs_null']:.4f}, "
      f"fresh 64 MiB machine <= {worst:.2f}x its run)")
EOF

echo "== perf trend gate (armbar-perf vs committed baseline) =="
"$BUILD/tools/armbar-perf" bench/baselines/BENCH_sim_perf.json \
    "$SMOKE_DIR/BENCH_sim_perf.json"

echo "== fast-path speedup gate (>= 3x the PR-6 interpreter, per preset) =="
# The frozen pre-fast-path report: every per-preset throughput, normalized
# by each report's own null loop, must hold the ISSUE 7 speedup.
"$BUILD/tools/armbar-perf" --min-ratio 3.0 --min-preset-ratio 3.0 \
    bench/baselines/BENCH_sim_perf.pr6.json "$SMOKE_DIR/BENCH_sim_perf.json"

echo "== bit-identity gate (points digests vs pinned baseline) =="
# The fast-path interpreter must not move a single simulated number: all 18
# figure/table experiments' sweep digests, and cna_scaling's, must match
# the pin. The pin is
# epoch-relative (each digest mixes the cache key — epoch, platform,
# program hash, run config — with every point value), so it catches any
# timing drift within the current epoch; equivalence of the ISSUE-7 code
# to the pre-fast-path build was proven separately by rebuilding with the
# old epoch string and reproducing the old pin (see POINTS_DIGESTS.json's
# note). On an intentional epoch bump, repeat that check, then re-pin.
"$BENCH" --filter 'fig*,table*,ablation*,cna_scaling' --jobs "$(nproc)" \
    --cache-dir "$CACHE_DIR" \
    --json="$SMOKE_DIR/all-points.report.json" > /dev/null
python3 - "$SMOKE_DIR/all-points.report.json" \
    bench/baselines/POINTS_DIGESTS.json <<'EOF'
import json, sys
cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))["digests"]
got = {k: v for k, v in cur["params"].items() if k.endswith("points_digest")}
missing = sorted(set(base) - set(got))
assert not missing, f"experiments missing from the sweep: {missing}"
bad = sorted(k for k in base if got[k] != base[k])
assert not bad, f"points digests diverged from the pinned baseline: {bad}"
print(f"bit-identity OK ({len(base)} digests match the pinned baseline)")
EOF
# Points digests mix only keys and values, so the counters and histograms
# the report carries (cached points' read back from their entries) have
# their own pin.
python3 scripts/metrics_digests.py "$SMOKE_DIR/all-points.report.json" \
    bench/baselines/METRICS_DIGESTS.json

echo "== --profile smoke (host_prof attached, digests unperturbed) =="
"$BENCH" --filter "$GATE_FILTER" --jobs "$(nproc)" --cache-dir "$CACHE_DIR" \
    --json="$SMOKE_DIR/profile-off.report.json" > /dev/null
"$BENCH" --filter "$GATE_FILTER" --jobs "$(nproc)" --cache-dir "$CACHE_DIR" \
    --profile --json="$SMOKE_DIR/profile-on.report.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/profile-on.report.json"
python3 - "$SMOKE_DIR/profile-off.report.json" \
    "$SMOKE_DIR/profile-on.report.json" <<'EOF'
import json, sys
off = json.load(open(sys.argv[1]))
on = json.load(open(sys.argv[2]))
assert "host_prof" not in off, "unprofiled run grew a host_prof section"
assert "host_prof" in on, "--profile run missing host_prof"
dig = lambda d: {k: v for k, v in d["params"].items()
                 if k.endswith("points_digest")}
assert dig(off), "report carries no points digests"
assert dig(off) == dig(on), "profiling perturbed points digests"
print(f"profile smoke OK ({len(dig(on))} points digests identical on/off)")
EOF

echo "== step gate (fig5 retires its NOP runs in few core steps) =="
# Deterministic, no timing: fig5 pads every barrier with hundreds of NOPs,
# and an untraced core retires each run in one step. Per-cycle issue would
# make sim.steps about equal to sim.instructions, while every digest would
# still match.
"$BENCH" --filter fig5_load_store --no-cache --profile \
    --json="$SMOKE_DIR/fig5-steps.report.json" > /dev/null
python3 - "$SMOKE_DIR/fig5-steps.report.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["host_prof"]["counters"]
steps, instrs = counters["sim.steps"], counters["sim.instructions"]
assert steps < 0.10 * instrs, \
    f"sim.steps {steps} is not < 10% of sim.instructions {instrs}"
print(f"step gate OK ({steps} steps for {instrs} instructions, "
      f"{100 * steps / instrs:.1f}%)")
EOF

echo "== lane gate (fig8a reschedules its spinning cores without the heap) =="
# Deterministic, no timing: fig8a's 24-25 live cores spin or compute, so
# almost every step reschedules its core a few cycles ahead, which the
# scheduler's 64-lane wheel files without a heap push. A heap-only
# scheduler pushes once per step, while every digest would still match.
"$BENCH" --filter fig8a_queue_stack --no-cache --profile \
    --json="$SMOKE_DIR/fig8a-lane.report.json" > /dev/null
python3 - "$SMOKE_DIR/fig8a-lane.report.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["host_prof"]["counters"]
# Zero counters are left out of the report; a lane that hands over no core
# at all is a failure too.
steps, hits = counters["sim.steps"], counters["sim.lane_hits"]
pushes = counters.get("sim.heap_pushes", 0)
assert pushes < 0.10 * steps, \
    f"sim.heap_pushes {pushes} is not < 10% of sim.steps {steps}"
print(f"lane gate OK ({pushes} heap pushes for {steps} steps, "
      f"{100 * pushes / steps:.1f}%; {hits} lane hits)")
EOF

echo "== run-ahead gate (fig7b takes fewer core steps than instructions) =="
# Deterministic, no timing: fig7b's delegation locks wait behind DMB st
# gates and spin through core-local instructions. Retrying a gated store
# every cycle makes about 3.5x as many steps as instructions, and with
# gate waits that sleep but no run-ahead it is still about 1.26x; only
# both together take fewer steps than instructions, while every digest
# would still match.
"$BENCH" --filter fig7b_delegation --no-cache --profile \
    --json="$SMOKE_DIR/fig7b-runahead.report.json" > /dev/null
python3 - "$SMOKE_DIR/fig7b-runahead.report.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["host_prof"]["counters"]
steps, instrs = counters["sim.steps"], counters["sim.instructions"]
assert steps < instrs, \
    f"sim.steps {steps} is not < sim.instructions {instrs}"
print(f"run-ahead gate OK ({steps} steps for {instrs} instructions, "
      f"{steps / instrs:.2f}x)")
EOF

echo "== model_perf gate (POR >= 5x naive on deep MP+dmb) =="
"$BENCH" --filter model_perf --no-cache \
    --json="$SMOKE_DIR/model_perf.report.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/model_perf.report.json"
python3 - "$SMOKE_DIR/model_perf.report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], "model_perf experiment failed"
speedup = doc["metrics"]["deep_speedup"]
assert speedup >= 5.0, f"POR speedup {speedup:.1f}x below the 5x gate"
gate = [c for c in doc["checks"] if ">=5x" in c["claim"]]
assert gate and all(c["pass"] for c in gate), "speedup check missing/failed"
print(f"model_perf gate OK (POR {speedup:.1f}x naive, "
      f"{doc['metrics']['deep_por_execs_per_sec']:.0f} POR execs/sec)")
EOF

echo "== single-experiment smoke (--filter fig3_store_store --json --trace) =="
"$BENCH" --filter fig3_store_store --cache-dir "$CACHE_DIR" \
    --json="$SMOKE_DIR/fig3_store_store.report.json" \
    --trace="$SMOKE_DIR/fig3_store_store.trace.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/fig3_store_store.report.json"
# The report must be named after the experiment and carry latency
# distributions, not just checks; the trace must hold events.
python3 - "$SMOKE_DIR/fig3_store_store.report.json" \
    "$SMOKE_DIR/fig3_store_store.trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "fig3_store_store", f"bench is {doc['bench']!r}"
hists = len(doc["histograms"])
assert hists >= 3, f"expected >= 3 histogram metrics in the report, got {hists}"
events = len(json.load(open(sys.argv[2]))["traceEvents"])
assert events > 0, "trace has an empty traceEvents array"
print(f"report carries {hists} histogram metrics; trace has {events} events")
EOF

echo "== trace_explorer self-check =="
"$BUILD/examples/trace_explorer" > /dev/null

echo "== malformed-argument smoke (exit 2, message names the option) =="
# Each binary gets one bad value and must reject it before doing any work:
# exit 2 and a message naming the option, never an abort or a run with a
# garbage value. Never give delegation_locks or pilot_channel a negative
# count here: if their check broke, the run would start billions of
# threads or send 2^64 messages.
bad_arg() {
  local want=$1
  shift
  set +e
  "$@" > /dev/null 2> "$SMOKE_DIR/bad-arg.err"
  local rc=$?
  set -e
  if [ "$rc" -ne 2 ] || ! grep -q -- "$want" "$SMOKE_DIR/bad-arg.err"; then
    echo "FAIL: '$*' exited $rc (want 2 and a message naming $want):" >&2
    cat "$SMOKE_DIR/bad-arg.err" >&2
    exit 1
  fi
}
bad_arg --chaos-seeds "$BUILD/tools/armbar-lockver" --chaos-seeds abc
bad_arg --platform "$BUILD/tools/armbar-lockver" --platform nosuch
bad_arg --seed "$BUILD/tools/armbar-opt" --seed -1
bad_arg --skews "$BUILD/tools/armbar-fuzz" --skews abc
bad_arg BUNDLE "$BUILD/tools/armbar-repro"
bad_arg --iters "$BUILD/examples/model_explorer" --iters abc
bad_arg threads "$BUILD/examples/delegation_locks" abc
bad_arg messages "$BUILD/examples/pilot_channel" abc
echo "malformed-argument smoke OK (8 bad command lines, each exit 2)"

echo "== fault-injected run (--fault-seed 7, schema gate) =="
# Fault plans perturb timing inside the architectural envelope, so every
# check still passes; the report must validate under the v2 schema with the
# robustness fields present (per-experiment status, empty quarantine).
"$BENCH" --filter 'table1*' --jobs "$(nproc)" --no-cache \
    --fault-seed 7 --verify-every 4096 \
    --json="$SMOKE_DIR/armbar-bench.fault.report.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/armbar-bench.fault.report.json"
python3 - "$SMOKE_DIR/armbar-bench.fault.report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert "quarantine" in doc, "report missing quarantine array"
assert doc["quarantine"] == [], "healthy faulted run quarantined something"
statuses = {k: v for k, v in doc["params"].items() if k.endswith("status")}
assert statuses, "report missing per-experiment status params"
assert all(v == "ok" for v in statuses.values()), statuses
print(f"fault-injected report OK ({len(statuses)} experiments, all ok)")
EOF

echo "== differential fuzz smoke (fixed seeds, zero mismatches) =="
FUZZ_DIR="$SMOKE_DIR/fuzz"
rm -rf "$FUZZ_DIR" && mkdir -p "$FUZZ_DIR"
# ~10 s: 48 fixed seeds across the full platform set with two chaos plans.
"$BUILD/tools/armbar-fuzz" --seed-start 1 --seed-count 48 --chaos-seeds 2 \
    --jobs "$(nproc)" --out-dir "$FUZZ_DIR" --profile \
    --json "$FUZZ_DIR/armbar-fuzz.report.json"
# Seeds 351 and 437 once aborted the process: a halted core lost the wake
# for a store whose gating branch committed in HALT's own step.
for SEED in 351 437; do
    "$BUILD/tools/armbar-fuzz" --seed-start "$SEED" --seed-count 1 \
        --jobs 1 --out-dir "$FUZZ_DIR" > /dev/null
done
if compgen -G "$FUZZ_DIR/*.repro.json" > /dev/null; then
    echo "FAIL: clean fuzz smoke produced repro bundles"
    exit 1
fi
"$BUILD/tools/report_check" "$FUZZ_DIR/armbar-fuzz.report.json"
python3 - "$FUZZ_DIR/armbar-fuzz.report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], "clean fuzz campaign report not ok"
m = doc["metrics"]
assert m["failing_seeds"] == 0, m
for k in ("campaign_runs_per_sec", "model_execs_per_sec", "model_check_ms"):
    assert m.get(k, 0) > 0, f"missing/zero throughput metric {k}"
# The campaign's workers exit before the snapshot, so these counts hold
# only if their parked tables are summed in.
hp = doc["host_prof"]
for phase in ("fuzz.generate", "fuzz.diff"):
    got = hp["phases"][phase]["count"]
    assert got == m["fuzz_seeds"], f"{phase} count {got} != {m['fuzz_seeds']} seeds"
for counter, metric in (("sim.runs", "sim_runs"),
                        ("model.executions", "model_candidates")):
    got = hp["counters"][counter]
    assert got == m[metric], f"counter {counter} {got} != metric {metric} {m[metric]}"
print(f"fuzz report OK ({m['campaign_runs_per_sec']:.0f} runs/sec, "
      f"{m['model_execs_per_sec']:.0f} model execs/sec; host_prof over "
      f"{hp['threads']} threads: {m['sim_runs']:.0f} sim.runs, "
      f"{m['model_candidates']:.0f} model.executions)")
EOF

echo "== planted-bug stage (drop-dmb-full must be caught and replay) =="
# Seed 29 emits a fenced program whose mutated (fence-dropped) twin shows an
# outcome outside the model's allowed set; the campaign must fail (rc 1),
# minimize it, and write a bundle armbar-repro replays bit-exactly.
set +e
"$BUILD/tools/armbar-fuzz" --seed-start 29 --seed-count 1 --chaos-seeds 2 \
    --jobs 1 --mutation drop-dmb-full --out-dir "$FUZZ_DIR"
FUZZ_RC=$?
set -e
if [ "$FUZZ_RC" -ne 1 ]; then
    echo "FAIL: planted-bug campaign exited $FUZZ_RC (want 1 = caught)"
    exit 1
fi
"$BUILD/tools/armbar-repro" "$FUZZ_DIR/fuzz-29.repro.json"
echo "planted-bug pipeline OK (caught, minimized, replayed)"

echo "== lock verification smoke (all clean variants, full sim grid) =="
# Every family/strength handoff template must hold every invariant on the
# axiomatic checker AND stay inside the model's allowed set across the
# platform x fault-plan x skew sim grid. A clean run writes no bundles.
LOCKVER_DIR="$SMOKE_DIR/lockver"
rm -rf "$LOCKVER_DIR" && mkdir -p "$LOCKVER_DIR"
"$BUILD/tools/armbar-lockver" --quiet --out "$LOCKVER_DIR"
if compgen -G "$LOCKVER_DIR/*.repro.json" > /dev/null; then
    echo "FAIL: clean lock verification produced repro bundles"
    exit 1
fi
"$BENCH" --filter 'lock_verify*' --no-cache \
    --json="$SMOKE_DIR/lock_verify.report.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/lock_verify.report.json"
python3 - "$SMOKE_DIR/lock_verify.report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], "lock_verify experiment failed"
m = doc["metrics"]
assert m["clean_failures"] == 0, m
assert m["planted_bugs"] == 18 and m["planted_caught"] == 18, m
assert doc["quarantine"] == [], "clean lock_verify quarantined something"
print(f"lock_verify OK ({m['clean_scenarios']:.0f} clean variants, "
      f"{m['planted_caught']:.0f}/{m['planted_bugs']:.0f} planted bugs caught)")
EOF

echo "== planted lock-bug stage (drop-release must be caught and replay) =="
# A release-edge miscompile of the weakened CNA handoff must fail
# verification (rc 1), write a lock_invariant bundle, and replay
# bit-exactly through armbar-repro — the proof a broken lock cannot pass.
set +e
"$BUILD/tools/armbar-lockver" --quiet --plant drop-release \
    --out "$LOCKVER_DIR" cna/weakened
LOCKVER_RC=$?
set -e
if [ "$LOCKVER_RC" -ne 1 ]; then
    echo "FAIL: planted lock bug exited $LOCKVER_RC (want 1 = caught)"
    exit 1
fi
"$BUILD/tools/armbar-repro" \
    "$LOCKVER_DIR/lockver_cna_weakened_drop-release.repro.json"
echo "planted lock-bug pipeline OK (caught, bundled, replayed)"

echo "== barrier_opt stage (oracle-verified rewrites, cycles saved, Table-3 parity) =="
"$BENCH" --filter 'barrier_opt*' --no-cache \
    --json="$SMOKE_DIR/barrier_opt.report.json" > /dev/null
"$BUILD/tools/report_check" "$SMOKE_DIR/barrier_opt.report.json"
python3 - "$SMOKE_DIR/barrier_opt.report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], "barrier_opt experiment failed"
m = doc["metrics"]
assert m["mp_dmb_full_eliminated"] >= 1, "MP+dmb.full kept all its barriers"
assert m["mp_dmb_full_min_cycles_saved"] > 0, \
    f"MP+dmb.full saved {m['mp_dmb_full_min_cycles_saved']} cycles on some preset"
for preset in ("rpi4", "kirin960", "kirin970", "kunpeng916"):
    assert m[f"{preset}_cycles_saved"] > 0, \
        f"optimization saved nothing on {preset}"
assert m["table3_parity_families"] == 3, \
    f"Table-3 parity on {m['table3_parity_families']:.0f}/3 lock families"
rep = doc["opt_report"]
t = rep["totals"]
assert t["rewrites_attempted"] >= t["rewrites_accepted"] + t["rewrites_restored"], t
sums = [sum(p[k] for p in rep["programs"])
        for k in ("rewrites_attempted", "rewrites_accepted", "rewrites_restored")]
assert sums == [t["rewrites_attempted"], t["rewrites_accepted"],
                t["rewrites_restored"]], (sums, t)
assert all(p["verified_equal"] for p in rep["programs"] if p["model_valid"]), \
    "a program left the optimizer unverified"
print(f"barrier_opt OK ({t['barriers_eliminated']} barriers eliminated, "
      f"{t['rewrites_accepted']}/{t['rewrites_attempted']} rewrites accepted, "
      f"parity {m['table3_parity_families']:.0f}/3)")
EOF

echo "== armbar-opt CLI smoke (lock-template corpus, opt_report schema) =="
"$BUILD/tools/armbar-opt" --locks --quiet \
    --json "$SMOKE_DIR/armbar-opt.report.json"
"$BUILD/tools/report_check" "$SMOKE_DIR/armbar-opt.report.json"

echo "== planted-unsoundness stage (bypassed oracle must be caught) =="
# An illegal barrier delete injected *after* the search, skipping the
# per-candidate oracle, must be caught by the final whole-program
# verification and restored. Exit 1 (caught) is the only passing outcome:
# 0 would mean the plant silently survived the pipeline's bookkeeping,
# 3 means it survived verification — the oracle would be decorative.
set +e
"$BUILD/tools/armbar-opt" --plant-unsound --quiet SB+dmb.full
OPT_RC=$?
set -e
if [ "$OPT_RC" -ne 1 ]; then
    echo "FAIL: planted unsound rewrite exited $OPT_RC (want 1 = caught)"
    exit 1
fi
echo "planted-unsoundness OK (caught by final verification and restored)"

echo "== shm service smoke (serve + cross-process attach load) =="
# The crash-tolerant channel service end to end: armbar-serve owns the
# segment and produces; a *separate* armbar-load process discovers the shm
# name via the name-file, attaches (layout-hash validated), consumes, and
# writes a report that must validate. Both sides must exit clean and leave
# zero segments behind (the GC pass is the witness).
SHM_DIR="$SMOKE_DIR/shmsvc"
rm -rf "$SHM_DIR" && mkdir -p "$SHM_DIR"
"$BUILD/tools/armbar-serve" --kind rb --channels 2 --records 200000 \
    --name svc-ci --name-file "$SHM_DIR/bus.name" > /dev/null &
SERVE_PID=$!
"$BUILD/tools/armbar-load" --attach-file "$SHM_DIR/bus.name" \
    --attach-wait-ms 10000 --consumers 2 \
    --json "$SHM_DIR/armbar-load.report.json" > /dev/null
wait "$SERVE_PID"
"$BUILD/tools/report_check" "$SHM_DIR/armbar-load.report.json"
python3 - "$SHM_DIR/armbar-load.report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], "shm service smoke report not ok"
m = doc["metrics"]
assert m["delivered"] == 400000, m   # 2 channels x 200k records, no chaos
assert m["duplicates"] == 0 and m["gaps"] == 0, m
print(f"shm service smoke OK ({m['delivered']:.0f} records, "
      f"{m['mps']:.2f} M/s, p99 {m['p99_us']:.1f} us)")
EOF

echo "== chaos soak (seeded SIGKILL/restart cycles, exact accounting) =="
# Bounded by --seconds; must clear the ISSUE 8 floor of 50 kill/restart
# cycles across the three channel kinds with zero duplicates, every gap
# accounted, and no leftover segments. armbar-shm-gc then proves /dev/shm
# holds nothing of ours.
"$BUILD/tools/armbar-chaos" --seconds 18 --seed 7 --min-cycles 50 \
    --json "$SHM_DIR/armbar-chaos.report.json"
"$BUILD/tools/report_check" "$SHM_DIR/armbar-chaos.report.json"
"$BUILD/tools/armbar-shm-gc" --quiet

echo "== ASan+UBSan build (${BUILD}-asan) =="
ASAN_BUILD="${BUILD}-asan"
cmake -B "$ASAN_BUILD" -S . -DARMBAR_SANITIZE=ON > /dev/null

cmake --build "$ASAN_BUILD" -j"$(nproc)"

echo "== ASan+UBSan tests (full suite: tier1 + slow, incl. the 200-seed =="
echo "== POR/naive equivalence sweep and fault-injected litmus sweep)   =="
ctest --test-dir "$ASAN_BUILD" --output-on-failure -j"$(nproc)"

echo "== ASan+UBSan armbar-bench fault smoke =="
"$ASAN_BUILD/bench/armbar-bench" --filter 'table1*' --jobs "$(nproc)" \
    --no-cache --fault-seed 3 > /dev/null

echo "== ThreadSanitizer build (${BUILD}-tsan, test_runner only) =="
TSAN_BUILD="${BUILD}-tsan"
cmake -B "$TSAN_BUILD" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
    -DARMBAR_BUILD_BENCH=OFF -DARMBAR_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$TSAN_BUILD" -j"$(nproc)" --target test_runner

echo "== ThreadSanitizer test_runner (any report fails) =="
# TSan exits 66 after a run with reports even when every test passed; the
# grep also catches a report from a binary that exited early.
TSAN_LOG="$TSAN_BUILD/test_runner.tsan.log"
if ! "$TSAN_BUILD/tests/runner/test_runner" > "$TSAN_LOG" 2>&1 ||
   grep -q 'WARNING: ThreadSanitizer' "$TSAN_LOG"; then
  echo "FAIL: test_runner under ThreadSanitizer:" >&2
  grep -A30 -m3 'WARNING: ThreadSanitizer\|FAILED' "$TSAN_LOG" >&2 ||
    tail -30 "$TSAN_LOG" >&2
  exit 1
fi
tail -1 "$TSAN_LOG"

echo "CI OK"
