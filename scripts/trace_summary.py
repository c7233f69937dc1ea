#!/usr/bin/env python3
"""Validate and summarize a hm_sweep --trace-dir output tree.

    scripts/trace_summary.py TRACE_DIR [--top N] [--quiet]

Walks TRACE_DIR (the directory passed to `hm_sweep run --trace-dir`), which
holds one subdirectory per experiment containing point_NNNN.trace.json
files, a sweep.trace.json, and a profile.json.  For every file it:

  * parses the JSON and checks the Chrome trace_event structure: a
    traceEvents array whose entries carry name/ph/pid/tid/ts (and dur >= 0
    for 'X' complete spans);
  * checks that, per (pid, tid) lane, 'X' spans are properly nested or
    disjoint — a span that starts inside an earlier span must end within
    it (execution lanes emit disjoint or cleanly stacked windows; overlap
    means a broken emitter).  Lanes named "res.*" are exempt: their spans
    are resource-delay windows of concurrent waiters, which overlap by
    nature (two requests queued on the same port at overlapping times);
  * flags dropped events (otherData.dropped_events != 0) so a capped sink
    is never mistaken for a complete timeline.

Then it reports, from the profile.json files, the top-N slowest points by
wall time and the per-phase totals (setup/codegen/simulate/serialize) per
experiment — the "where did the sweep's time go" view.

Exit codes: 0 all files valid, 1 validation failure, 2 usage error.
CI runs this over the Release-job smoke's trace artifacts; it is also the
reference consumer for the trace format.
"""

import argparse
import json
import os
import sys


def fail_usage(msg: str) -> "sys.NoReturn":
    print(f"trace_summary: error: {msg}", file=sys.stderr)
    sys.exit(2)


def validate_trace(path: str, problems: list) -> dict:
    """Structural validation of one Chrome trace JSON file.  Appends
    human-readable problem strings; returns the parsed document ({} on
    parse failure)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problems.append(f"{path}: does not parse: {e}")
        return {}
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        problems.append(f"{path}: no traceEvents array")
        return doc

    # Per-lane span lists for the nesting check, plus the lane-name map from
    # thread_name metadata (needed to exempt "res.*" delay-window lanes).
    lanes = {}
    lane_names = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problems.append(f"{path}: event {i} is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                problems.append(f"{path}: event {i} lacks '{key}'")
        ph = e.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{path}: event {i} has unexpected ph={ph!r}")
            continue
        if ph == "M":
            if e.get("name") == "thread_name":
                lane_names[(e.get("pid"), e.get("tid"))] = e.get(
                    "args", {}
                ).get("name", "")
            continue  # metadata events carry no timestamp
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{path}: event {i} has bad ts={ts!r}")
            continue
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{path}: span {i} has bad dur={dur!r}")
                continue
            lanes.setdefault((e.get("pid"), e.get("tid")), []).append(
                (float(ts), float(ts) + float(dur), e.get("name"))
            )

    # Spans within a lane must be properly nested or disjoint: sort by
    # (start, -end) and walk a stack of open intervals.  "res.*" lanes hold
    # overlapping delay windows of concurrent waiters — skipped.
    for (pid, tid), spans in lanes.items():
        if lane_names.get((pid, tid), "").startswith("res."):
            continue
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in spans:
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1]:
                problems.append(
                    f"{path}: lane pid={pid} tid={tid}: span '{name}' "
                    f"[{start}, {end}) straddles enclosing "
                    f"'{stack[-1][2]}' [{stack[-1][0]}, {stack[-1][1]})"
                )
                continue
            stack.append((start, end, name))

    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    if dropped:
        problems.append(
            f"{path}: {dropped} events dropped at the sink cap — timeline "
            "is truncated, not complete"
        )
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace_dir", help="directory given to hm_sweep --trace-dir")
    ap.add_argument("--top", type=int, default=10,
                    help="slowest points to list per experiment (default 10)")
    ap.add_argument("--quiet", action="store_true",
                    help="only report problems, skip the summary tables")
    args = ap.parse_args()
    if not os.path.isdir(args.trace_dir):
        fail_usage(f"{args.trace_dir}: not a directory")

    trace_files = []
    profiles = []
    for root, _dirs, files in os.walk(args.trace_dir):
        for name in sorted(files):
            path = os.path.join(root, name)
            if name == "profile.json":
                profiles.append(path)
            elif name.endswith(".json"):
                trace_files.append(path)
    if not trace_files:
        fail_usage(f"{args.trace_dir}: no trace files found")

    problems = []
    event_total = 0
    for path in trace_files:
        doc = validate_trace(path, problems)
        event_total += len(doc.get("traceEvents", []) or [])
    print(
        f"trace_summary: {len(trace_files)} trace file(s), "
        f"{event_total} events, {len(profiles)} profile(s)"
    )

    for path in sorted(profiles):
        try:
            with open(path, "r", encoding="utf-8") as f:
                prof = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"{path}: does not parse: {e}")
            continue
        if args.quiet:
            continue
        name = prof.get("experiment", "?")
        points = prof.get("points", [])
        phases = [
            (ph, prof.get(f"{ph}_seconds", 0.0))
            for ph in ("setup", "codegen", "simulate", "serialize")
        ]
        total = sum(s for _, s in phases) or 1.0
        print(f"\n{name}: {prof.get('executed', 0)} executed point(s)")
        for ph, secs in phases:
            print(f"  {ph:<10} {secs:>9.3f}s  {100.0 * secs / total:5.1f}%")
        slowest = sorted(
            points,
            key=lambda p: -sum(
                p.get(f"{ph}_seconds", 0.0)
                for ph in ("setup", "codegen", "simulate", "serialize")
            ),
        )[: args.top]
        if slowest:
            print(f"  top {len(slowest)} slowest point(s):")
        for p in slowest:
            wall = sum(
                p.get(f"{ph}_seconds", 0.0)
                for ph in ("setup", "codegen", "simulate", "serialize")
            )
            dominant = max(
                ("setup", "codegen", "simulate", "serialize"),
                key=lambda ph: p.get(f"{ph}_seconds", 0.0),
            )
            print(
                f"    {p.get('label', '?'):<44} {wall:>8.3f}s  "
                f"({dominant}, {p.get('sim_cycles', 0)} cycles)"
            )

    if problems:
        print(f"\ntrace_summary: {len(problems)} problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("trace_summary: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
