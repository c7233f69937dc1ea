#!/usr/bin/env bash
# Fast correctness + perf-harness gate: configure, build, run the unit tests,
# then smoke the engine throughput benchmark for one short iteration so
# regressions in either the model or the perf harness fail loudly.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . "$@"
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

if [ -x build/bench_engine ]; then
  # Plain-double seconds: the "0.01x" iteration-suffix form needs
  # google-benchmark >= 1.8, and the smoke must run on 1.7 too.
  # The JSON is CI's build/BENCH_engine.json artifact.
  (cd build && ./bench_engine --benchmark_min_time=0.05 \
    --benchmark_out=BENCH_engine.json --benchmark_out_format=json)
else
  echo "bench_engine not built (HM_BUILD_BENCH=OFF?) — skipping perf smoke"
fi

# The engine perf gate's scoring on synthetic rounds (CI runs the gate
# itself against the parent commit's bench_engine).
python3 scripts/perf_gate_test.py

# Sweep-driver smoke: the Fig. 7 experiment on two workers exercises the
# point pool, the registries and the renderer end to end.  The `run`
# subcommand is mandatory (hm_sweep errors without it), so this invocation
# and ci.yml's can no longer drift apart.
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --quiet)

# Observability smoke: the same experiment with tracing and the per-point
# progress callback on; its JSON/CSV must equal the untraced run's byte for
# byte, then the trace validator checks the artifacts.
rm -rf build/obs_smoke
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --no-journal \
  --quiet --out obs_smoke/ref > /dev/null)
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --no-journal \
  --progress --out obs_smoke/out --trace-dir obs_smoke/traces > /dev/null)
diff build/obs_smoke/ref/fig7.json build/obs_smoke/out/fig7.json
diff build/obs_smoke/ref/fig7.csv build/obs_smoke/out/fig7.csv
python3 scripts/trace_summary.py build/obs_smoke/traces --quiet

# Sampled trace: the sampler's detail/fast-forward spans must nest cleanly
# next to the per-tile phase spans.
(cd build && ./hm_sweep run --filter fig9 --sample interval --scale 0.3 \
  --jobs 2 --quiet --trace-dir obs_smoke/sampled_traces)
python3 scripts/trace_summary.py build/obs_smoke/sampled_traces --quiet

# Quiet-stderr check: a quiet sweep writes nothing to stderr, plain or
# sampled (whose once-per-invocation note --quiet suppresses).  Any
# warning here is either a real problem or a spurious one; both fail.
for sample in off interval; do
  err=$(cd build && ./hm_sweep run --filter fig8 --scale 0.05 --quiet --no-cache \
    --no-journal --format csv --sample "$sample" 2>&1 > /dev/null)
  if [ -n "$err" ]; then
    echo "hm_sweep --sample $sample wrote to stderr:" >&2
    echo "$err" >&2
    exit 1
  fi
done

# Docs check: registry-vs-EXPERIMENTS.md consistency already ran as part of
# ctest (docs_test); here, sweep every relative markdown link in the
# top-level docs for dead targets, including ones docs_test doesn't cover.
python3 scripts/docs_check.py

echo "check.sh: all green"
