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
  (cd build && ./bench_engine --benchmark_min_time=0.05)
else
  echo "bench_engine not built (HM_BUILD_BENCH=OFF?) — skipping perf smoke"
fi

# Sweep-driver smoke: the Fig. 7 experiment on two workers exercises the
# scheduler, the registries and the renderer end to end.  The `run`
# subcommand is mandatory (hm_sweep errors without it), so this invocation
# and ci.yml's can no longer drift apart.
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --quiet)

# Observability smoke: the same experiment with tracing + metrics on, then
# the trace validator and the metrics-name lint over the artifacts.
rm -rf build/obs_smoke
(cd build && ./hm_sweep run --filter fig7 --jobs 2 --no-cache --no-journal \
  --quiet --trace-dir obs_smoke/traces --metrics-out obs_smoke/metrics.prom)
python3 scripts/trace_summary.py build/obs_smoke/traces --quiet
python3 scripts/metrics_lint.py build/obs_smoke/metrics.prom

# Sampled trace: the sampler's detail/fast-forward spans must nest cleanly
# next to the per-tile phase spans.
(cd build && ./hm_sweep run --filter fig9 --sample interval --scale 0.3 \
  --jobs 2 --quiet --trace-dir obs_smoke/sampled_traces)
python3 scripts/trace_summary.py build/obs_smoke/sampled_traces --quiet

# Docs check: registry-vs-EXPERIMENTS.md consistency already ran as part of
# ctest (docs_test); here, sweep every relative markdown link in the
# top-level docs for dead targets, including ones docs_test doesn't cover.
python3 scripts/docs_check.py

echo "check.sh: all green"
