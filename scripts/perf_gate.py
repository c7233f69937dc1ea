#!/usr/bin/env python3
"""Engine-throughput gate: a change's bench_engine against its parent's.

    python3 scripts/perf_gate.py PARENT_BENCH CHANGE_BENCH

Runs the two bench_engine binaries in ROUNDS interleaved rounds, the parent
first in even rounds and the change first in odd ones, each run at
--benchmark_min_time=MIN_TIME.  Both sides share the host and the minutes,
so the host's speed and its drift cancel out of every ratio.  Two checks,
each on a median over rounds so that one noisy round never decides:

  rows     per benchmark, the median of the per-round ratios change/parent
           of items_per_second must be at least ROW_FLOOR.  A row on one
           side only prints as `new` or `gone` and is not scored.
  sampled  the median over rounds of the change's BM_SystemRunSampled/0 ÷
           BM_SystemRun/0 (the sampled engine's speedup over the detailed
           engine on the same point) must be at least SAMPLED_MIN.

Every run must carry bench_engine's context tag `hm_observability:
disabled`, so the scored throughput is the engine's with the observability
layer compiled in and idle.

A gate relative to the parent cannot see a slow drift spread over many
changes; perfbench's per-change trajectory covers that.  BENCH_engine.json
records one host's throughput and is not read here.

Exit codes: 0 pass, 1 a check failed, 2 usage or environment error.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 11
MIN_TIME = 0.1
ROW_FLOOR = 0.75
SAMPLED_MIN = 1.5
SAMPLED_ROW = "BM_SystemRunSampled/0"
DETAILED_ROW = "BM_SystemRun/0"


def fail(msg):
    print(f"perf_gate: error: {msg}", file=sys.stderr)
    sys.exit(2)


def throughputs(doc, source):
    """name -> items_per_second of one google-benchmark JSON document, which
    must record that tracing was disabled."""
    tag = doc.get("context", {}).get("hm_observability")
    if tag != "disabled":
        fail(f"{source}: hm_observability context is {tag!r}, expected 'disabled'")
    return {b["name"]: float(b["items_per_second"]) for b in doc.get("benchmarks", [])
            if b.get("run_type") != "aggregate" and b.get("items_per_second", 0) > 0}


def gate(parent_docs, change_docs):
    """Score both sides' per-round documents (round i of each side ran back
    to back), print the table and return the exit code."""
    parent = [throughputs(d, f"parent round {i + 1}") for i, d in enumerate(parent_docs)]
    change = [throughputs(d, f"change round {i + 1}") for i, d in enumerate(change_docs)]
    print(f"perf_gate: median of {len(parent)} per-round ratios change/parent "
          f"(fail below {ROW_FLOOR:.2f}x)")
    print(f"  {'benchmark':<24} {'parent':>10} {'change':>10} {'ratio':>7}  rounds")
    scored = []
    for name in sorted(set(parent[0]) | set(change[0])):
        if name not in parent[0] or name not in change[0]:
            print(f"  {name:<24} {'new' if name in change[0] else 'gone':>29}")
            continue
        ratios = [c[name] / p[name] for p, c in zip(parent, change)]
        ratio = statistics.median(ratios)
        scored.append((ratio, name))
        print(f"  {name:<24} {statistics.median(p[name] for p in parent):>10.3e} "
              f"{statistics.median(c[name] for c in change):>10.3e} {ratio:>6.3f}x  "
              f"{min(ratios):.2f}-{max(ratios):.2f}"
              + ("  << REGRESSION" if ratio < ROW_FLOOR else ""))
    if not scored:
        fail("no benchmark ran on both sides")
    try:
        speedup = statistics.median(c[SAMPLED_ROW] / c[DETAILED_ROW] for c in change)
    except KeyError:
        fail(f"the change's bench_engine lacks {SAMPLED_ROW} or {DETAILED_ROW}")
    worst, worst_name = min(scored)
    print(f"perf_gate: worst row {worst_name} at {worst:.3f}x; sampled speedup "
          f"{SAMPLED_ROW} / {DETAILED_ROW} = {speedup:.2f}x (at least {SAMPLED_MIN:.1f}x)")
    regressed = [name for ratio, name in scored if ratio < ROW_FLOOR]
    if regressed:
        print(f"perf_gate: FAIL — {len(regressed)} benchmark(s) below {ROW_FLOOR:.2f}x "
              "of the parent", file=sys.stderr)
    if speedup < SAMPLED_MIN:
        print(f"perf_gate: FAIL — sampled speedup {speedup:.2f}x is below "
              f"{SAMPLED_MIN:.1f}x", file=sys.stderr)
    if regressed or speedup < SAMPLED_MIN:
        return 1
    print("perf_gate: OK")
    return 0


def run_bench(binary):
    """One full bench_engine run, captured through --benchmark_out."""
    with tempfile.TemporaryDirectory(prefix="perf_gate-") as tmp:
        out = os.path.join(tmp, "bench.json")
        proc = subprocess.run([binary, f"--benchmark_min_time={MIN_TIME}",
                               f"--benchmark_out={out}", "--benchmark_out_format=json"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            fail(f"{binary} exited {proc.returncode}:\n{proc.stderr}")
        try:
            with open(out, encoding="utf-8") as f:
                return json.load(f)
        except (OSError, ValueError) as e:
            fail(f"{binary}: unreadable benchmark output ({e})")


def main(argv):
    if len(argv) != 2:
        fail("usage: perf_gate.py PARENT_BENCH CHANGE_BENCH")
    for binary in argv:
        if not os.access(binary, os.X_OK):
            fail(f"{binary}: not an executable (build bench_engine with HM_BUILD_BENCH=ON)")
    docs = ([], [])
    for i in range(ROUNDS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            docs[side].append(run_bench(argv[side]))
        print(f"perf_gate: round {i + 1}/{ROUNDS} done", file=sys.stderr, flush=True)
    return gate(*docs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
