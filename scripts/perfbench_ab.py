#!/usr/bin/env python3
"""Interleaved A/B of two built hm_perfbench binaries on one workload.

    python3 scripts/perfbench_ab.py --parent A/hm_perfbench --change B/hm_perfbench \\
        --workload mesh_manycore --pairs 10 --seconds 60

Runs --pairs pairs of untraced runs (--trace 0).  Pair i gives both sides the
seed --seed + i and the same --seconds; the parent runs first in even pairs
and the change runs first in odd ones.  Any run that exits non-zero, reports
correct: false or counts a failed point stops the comparison (exit 1).

For every end-to-end metric in BENCHMARK.json the summary prints each side's
median and quartiles, the change's ratio to the parent's median, and the
pairs the change won (ties count for neither side), then two verdicts:

  gain   "yes" when the change won at least 9/10 of the pairs and its median
         beats the parent's by more than the parent's interquartile range;
         a claim needs --pairs >= 10.
  bound  "worse" when the change's median is worse than the parent's by more
         than the metric's bound; "unresolved" when either side's IQR is
         wider than the bound (relative to the parent's median), unless every
         change run beats every parent run; "ok" otherwise.

Both sides check their digests against this checkout's perfbench/pins.txt.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import PINS, RUN_TIMEOUT_S, validate  # noqa: E402


def run_once(binary, args, seed, work_root):
    """One untraced run; returns its result object or raises RuntimeError."""
    work = tempfile.mkdtemp(prefix="ab-", dir=work_root)
    cmd = [binary, "--work-dir", work, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0", "--pins", PINS]
    if args.scale is not None:
        cmd += ["--scale", repr(args.scale)]
    timeout = max(RUN_TIMEOUT_S, args.seconds + 110)  # perfbench/run.py's hang bound
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{binary}: no result within {timeout} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{binary}: no result line (exit {proc.returncode})")
    problems = validate(result, 0)
    if problems:
        raise RuntimeError(f"{binary} seed {seed}: " + "; ".join(problems))
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{binary} seed {seed}: exit {proc.returncode}, correct "
                           f"{result.get('correct')}, failed {result.get('failed')}/"
                           f"{result.get('attempted')}; details: {lines[-2] if len(lines) > 1 else ''}")
    return result


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(spec, parent_runs, change_runs):
    rows = []
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(1 for x, y in zip(a, b) if better(y, x))
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        iqr_a, iqr_b = qa[1] - qa[0], qb[1] - qb[0]
        gap = (ma - mb) if lower else (mb - ma)  # > 0: change better
        gain = len(a) >= 10 and wins >= 0.9 * len(a) and gap > iqr_a
        all_better = all(better(y, x) for x in a for y in b)
        scale = abs(ma) if ma != 0 else 1.0
        if -gap > m["bound"] * scale:
            bound = "worse"
        elif max(iqr_a, iqr_b) > m["bound"] * scale and not all_better:
            bound = "unresolved"
        else:
            bound = "ok"
        rows.append({"metric": name, "unit": m["unit"], "better": m["better"],
                     "parent": {"median": ma, "q1": qa[0], "q3": qa[1], "runs": a},
                     "change": {"median": mb, "q1": qb[0], "q3": qb[1], "runs": b},
                     "ratio": mb / ma if ma != 0 else None, "wins": wins, "pairs": len(a),
                     "gain": gain, "bound": bound})
    return rows


def spread(side):
    return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="hm_perfbench built from the parent commit")
    ap.add_argument("--change", required=True, help="hm_perfbench built from the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--scale", type=float, help="override every point's scale (smoke runs)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    parent_runs, change_runs = [], []
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as work_root:
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("parent", args.parent, parent_runs), ("change", args.change, change_runs)]
            if i % 2 == 1:
                sides.reverse()
            for label, binary, runs in sides:
                try:
                    runs.append(run_once(binary, args, seed, work_root))
                except RuntimeError as e:
                    print(f"perfbench_ab: {label} run failed: {e}", file=sys.stderr)
                    return 1
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
                print(f"pair {i + 1}/{args.pairs} seed {seed} {label}: {shown}",
                      file=sys.stderr, flush=True)

    rows = summarize(spec, parent_runs, change_runs)
    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}"
          + (f", --scale {args.scale:g}" if args.scale is not None else "")
          + (", too few pairs to claim a gain" if args.pairs < 10 else ""))
    print(f"{'metric':<16} {'unit':<7} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'ratio':>6} {'wins':>6}  gain  bound")
    for r in rows:
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        wins = f"{r['wins']}/{r['pairs']}"
        print(f"{r['metric']:<16} {r['unit']:<7} {spread(r['parent']):<30} "
              f"{spread(r['change']):<30} {ratio:>6} {wins:>6}  "
              f"{'yes' if r['gain'] else 'no':<4}  {r['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
