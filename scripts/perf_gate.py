#!/usr/bin/env python3
"""Perf-regression gate for the simulation engine.

BENCH_engine.json (committed at the repo root) is the engine-throughput
baseline; CI uploads fresh measurements but, before this gate, never
*checked* them — a hot-path regression could land silently.  This script
closes that hole:

    scripts/perf_gate.py --bench build/bench_engine --baseline BENCH_engine.json

It runs the benchmark REPS times (default 3), takes the per-benchmark
MEDIAN of items_per_second (noise tolerance: one slow rep never fails the
gate), and compares each benchmark against the committed baseline.  Any
benchmark slower than (1 - threshold) x baseline — default threshold 0.25,
i.e. a >25% regression — fails the gate with exit code 1.

Benchmarks present on only one side are reported but never fail the gate
(adding/removing a benchmark is not a regression), so the gate stays
usable while the bench suite evolves.

Noisy-host tolerance: when the first pass finds regressions, the gate
re-measures ONCE (same reps, fresh processes) and scores the regressed
benchmarks again, printing both medians side by side.  Only a benchmark
slow in BOTH passes fails the gate — a one-off CI-runner hiccup (noisy
neighbor, thermal dip) self-clears instead of red-flagging the PR.  The
--fresh dry-run hook has nothing to re-measure, so it keeps single-pass
semantics (which is also what the gate's own self-test relies on).

Dry-run hook: --fresh FILE skips running the benchmark and scores a
pre-captured google-benchmark JSON instead.  That is how the gate itself
is tested — double every baseline throughput and the same fresh file must
fail:

    scripts/perf_gate.py --fresh fresh.json --baseline doubled.json  # exit 1

Observability-overhead check: --obs-overhead additionally requires every
scored measurement to carry the benchmark-context tag
`hm_observability: disabled` (bench_engine records it; PR 7).  The normal
threshold comparison then doubles as the overhead gate: the observability
layer is compiled in, no sink is installed, and throughput must still be
within the regression threshold of the committed (pre-observability)
baseline — i.e. the disabled-path cost is bounded by bench noise.

Sampled-speedup check: --sampled-speedup MIN requires the sampled engine's
BM_SystemRunSampled row to be at least MIN x the matching BM_SystemRun row
(the detailed engine on the same point) in the same fresh pass, so the
check is host-relative.  Like the regression gate, a failing first pass is
re-measured once before failing CI, and a confirmed failure prints the raw
per-rep samples behind every pass so the CI log shows whether the medians
hid a wild spread (host noise) or a consistent miss.

Exit codes: 0 gate passed, 1 regression detected, 2 usage/environment
error (missing files, benchmark crash, malformed JSON).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def fail(msg: str) -> "sys.NoReturn":
    print(f"perf_gate: error: {msg}", file=sys.stderr)
    sys.exit(2)


def throughputs(doc: dict) -> dict:
    """name -> items_per_second for every timed benchmark in a
    google-benchmark JSON document (aggregates and items-less entries are
    skipped)."""
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        name = b.get("name")
        if name and isinstance(ips, (int, float)) and ips > 0:
            out[name] = float(ips)
    return out


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path}: no such file")
    except json.JSONDecodeError as e:
        fail(f"{path}: malformed JSON ({e})")


def check_obs_disabled(doc: dict, source: str) -> None:
    """--obs-overhead: the measurement must self-certify that tracing was
    disabled, otherwise the 'idle observability costs nothing' claim is
    untested (missing tag = old binary = equally invalid)."""
    tag = doc.get("context", {}).get("hm_observability")
    if tag != "disabled":
        fail(
            f"{source}: hm_observability context is {tag!r}, expected "
            "'disabled' (rebuild bench_engine; --obs-overhead scores only "
            "tracing-disabled runs)"
        )


SERIAL_BENCH = "BM_SystemRun"
SAMPLED_BENCH = "BM_SystemRunSampled"


def find_row(medians: dict, prefix: str) -> "float | None":
    """Value of the row named exactly `prefix` or starting with `prefix/`
    (benchmarks with UseRealTime suffix names with /real_time)."""
    for name, ips in medians.items():
        if name == prefix or name.startswith(prefix + "/"):
            return ips
    return None


def sampled_speedup(medians: dict) -> "float | None":
    """Throughput ratio of the sampled-engine row over the detailed row of
    the SAME point (BM_SystemRunSampled/<arg> vs BM_SystemRun/<arg>), or
    None when the pair is missing.  Both report simulated cycles/second for
    the same target total, so the ratio is the point-throughput speedup."""
    for name, ips in medians.items():
        if not name.startswith(SAMPLED_BENCH + "/"):
            continue
        arg = name[len(SAMPLED_BENCH) + 1 :].split("/")[0]
        detailed = find_row(medians, f"{SERIAL_BENCH}/{arg}")
        if detailed is not None and detailed > 0:
            return ips / detailed
    return None


def run_bench(bench: str, min_time: float, rep: int) -> dict:
    """One benchmark repetition, captured via --benchmark_out (stdout stays
    human-readable in the CI log)."""
    with tempfile.NamedTemporaryFile(
        prefix=f"perf_gate_rep{rep}_", suffix=".json", delete=False
    ) as tmp:
        out_path = tmp.name
    cmd = [
        bench,
        f"--benchmark_min_time={min_time}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except OSError as e:
        fail(f"cannot run {bench}: {e}")
    if proc.returncode != 0:
        fail(
            f"{bench} exited {proc.returncode} on rep {rep}:\n"
            + proc.stderr.decode(errors="replace")
        )
    doc = load_json(out_path)
    os.unlink(out_path)
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="build/bench_engine",
                    help="bench_engine binary to measure (default: build/bench_engine)")
    ap.add_argument("--baseline", default="BENCH_engine.json",
                    help="committed baseline JSON (default: BENCH_engine.json)")
    ap.add_argument("--reps", type=int, default=3,
                    help="repetitions; the per-benchmark median is scored (default: 3)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max tolerated fractional regression (default: 0.25)")
    ap.add_argument("--min-time", type=float, default=0.05,
                    help="--benchmark_min_time per rep in seconds (default: 0.05)")
    ap.add_argument("--fresh", metavar="FILE",
                    help="score this pre-captured benchmark JSON instead of "
                         "running --bench (dry-run / self-test hook)")
    ap.add_argument("--obs-overhead", action="store_true",
                    help="require the hm_observability=disabled context tag "
                         "on every scored measurement, making the threshold "
                         "comparison an observability-overhead gate")
    ap.add_argument("--sampled-speedup", type=float, metavar="MIN",
                    help="require BM_SystemRunSampled to be at least MIN x "
                         "the matching BM_SystemRun row in the fresh "
                         "measurement (host-relative)")
    args = ap.parse_args()

    if args.reps < 1:
        fail("--reps must be >= 1")
    if not 0.0 < args.threshold < 1.0:
        fail("--threshold must be in (0, 1)")

    baseline = throughputs(load_json(args.baseline))
    if not baseline:
        fail(f"{args.baseline}: no benchmarks with items_per_second")

    rep_history = []  # list of per-pass rep lists (name -> ips dicts)

    def measure() -> dict:
        """Median-of-reps throughput for every benchmark (one full pass).
        The raw per-rep samples are retained in rep_history so a failing
        speedup check can print them — the spread distinguishes a noisy
        host from a real miss."""
        reps = []
        for r in range(args.reps):
            doc = run_bench(args.bench, args.min_time, r + 1)
            if args.obs_overhead:
                check_obs_disabled(doc, f"{args.bench} rep {r + 1}")
            reps.append(throughputs(doc))
        rep_history.append(reps)
        medians = {}
        for name in reps[0]:
            samples = [r[name] for r in reps if name in r]
            if samples:
                medians[name] = statistics.median(samples)
        return medians

    def print_rep_samples(bench_prefix: str) -> None:
        """Raw per-rep throughputs of every row under bench_prefix, every
        pass measured so far."""
        for pass_no, reps in enumerate(rep_history, start=1):
            names = sorted({n for r in reps for n in r if n.startswith(bench_prefix)})
            for name in names:
                samples = " ".join(
                    f"{r[name]:.3e}" if name in r else "-" for r in reps
                )
                print(f"    pass {pass_no} {name}: {samples}")

    if args.fresh:
        fresh_doc = load_json(args.fresh)
        if args.obs_overhead:
            check_obs_disabled(fresh_doc, args.fresh)
        fresh = throughputs(fresh_doc)
    else:
        if not os.access(args.bench, os.X_OK):
            fail(f"{args.bench}: not an executable (build with HM_BUILD_BENCH=ON)")
        fresh = measure()
    if not fresh:
        fail("fresh measurement produced no benchmarks with items_per_second")

    floor = 1.0 - args.threshold
    regressions = []
    print(f"perf_gate: median of {args.reps} rep(s) vs {args.baseline} "
          f"(fail below {floor:.2f}x)")
    print(f"  {'benchmark':<32} {'baseline':>14} {'fresh':>14} {'ratio':>8}")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            print(f"  {name:<32} {'-':>14} {fresh[name]:>14.3e} {'new':>8}")
            continue
        if name not in fresh:
            print(f"  {name:<32} {baseline[name]:>14.3e} {'-':>14} {'gone':>8}")
            continue
        ratio = fresh[name] / baseline[name]
        verdict = "" if ratio >= floor else "  << REGRESSION"
        print(f"  {name:<32} {baseline[name]:>14.3e} {fresh[name]:>14.3e} "
              f"{ratio:>7.2f}x{verdict}")
        if ratio < floor:
            regressions.append(name)

    if regressions and not args.fresh:
        # Second chance for a noisy host: re-measure once and fail only what
        # is slow in both passes, printing both medians for the CI log.
        print(f"perf_gate: {len(regressions)} regression(s) — re-measuring once "
              "to rule out host noise")
        second = measure()
        confirmed = []
        print(f"  {'benchmark':<32} {'1st median':>14} {'2nd median':>14} "
              f"{'2nd ratio':>10}")
        for name in regressions:
            if name not in second:
                confirmed.append((name, 0.0))
                print(f"  {name:<32} {fresh[name]:>14.3e} {'-':>14} {'gone':>10}")
                continue
            ratio = second[name] / baseline[name]
            verdict = "" if ratio >= floor else "  << CONFIRMED"
            print(f"  {name:<32} {fresh[name]:>14.3e} {second[name]:>14.3e} "
                  f"{ratio:>9.2f}x{verdict}")
            if ratio < floor:
                confirmed.append((name, ratio))
        regressions = confirmed
        if not regressions:
            print("perf_gate: first-pass regressions did not reproduce "
                  "(host noise) — gate passes")
    else:
        regressions = [(name, fresh[name] / baseline[name]) for name in regressions]

    # --sampled-speedup: the sampled engine's point-throughput gain over the
    # detailed engine on the same point, from the same fresh medians.
    sampled_failed = False
    if args.sampled_speedup is not None:
        need_s = args.sampled_speedup
        if need_s <= 1.0:
            fail("--sampled-speedup must be > 1")
        ssp = sampled_speedup(fresh)
        if ssp is None:
            fail(f"--sampled-speedup: {SAMPLED_BENCH} and the matching "
                 f"{SERIAL_BENCH} row are not both present in the fresh "
                 "measurement (rebuild bench_engine)")
        if ssp >= need_s:
            print(f"perf_gate: sampled speedup OK — {ssp:.2f}x over the "
                  f"detailed engine (>= {need_s:.1f}x required)")
        elif not args.fresh:
            print(f"perf_gate: sampled speedup {ssp:.2f}x < {need_s:.1f}x — "
                  "re-measuring once to rule out host noise")
            ssp2 = sampled_speedup(measure())
            if ssp2 is not None and ssp2 >= need_s:
                print(f"perf_gate: sampled speedup OK on second pass — "
                      f"{ssp2:.2f}x (first pass was host noise)")
            else:
                sampled_failed = True
                ssp = ssp2 if ssp2 is not None else ssp
        else:
            sampled_failed = True
        if sampled_failed:
            print("perf_gate: per-rep samples behind the failing "
                  "sampled-speedup check:")
            print_rep_samples(SAMPLED_BENCH)
            print_rep_samples(SERIAL_BENCH + "/")

    if regressions:
        worst = min(regressions, key=lambda nr: nr[1])
        print(f"perf_gate: FAIL — {len(regressions)} benchmark(s) regressed "
              f">{args.threshold:.0%} in both passes "
              f"(worst: {worst[0]} at {worst[1]:.2f}x)",
              file=sys.stderr)
        return 1
    if sampled_failed:
        print(f"perf_gate: FAIL — sampled engine speedup {ssp:.2f}x is below "
              f"the required {args.sampled_speedup:.1f}x",
              file=sys.stderr)
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
