#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 25 --trace 0

perfbench/README.md describes the workloads, metrics and checks.  The first
run configures and builds perfbench/CMakeLists.txt -- which compiles every
src/*.cpp with the top-level flags -- under .bench_build/perfbench; later
runs rebuild only what changed.  A run prints a details line (host context,
per-pass times, digest, failed checks) and then, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every check passed.

    python3 perfbench/run.py --write-pins   # re-pin after an intended engine change
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PINS = os.path.join(HERE, "pins.txt")
# A normal run ends well inside a minute; this only bounds a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure on first use, build, and return the CMake cache entries.
    Refuses any build type but Release."""
    cache_file = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache_file):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    cache = {}
    with open(cache_file) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and not line.startswith(("//", "#")):
                cache[key.split(":")[0]] = value
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise RuntimeError(f"refusing to measure a '{cache.get('CMAKE_BUILD_TYPE')}' build in "
                           f"{BUILD}; delete it and rerun to get a Release build")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs], check=True, stdout=sys.stderr)
    return cache


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def git_commit():
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """Names the measured code when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def validate(result, trace):
    """Problems with a result line: its keys, and its metric names and units
    against BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_file):
        return []
    with open(spec_file) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got == want:
        return []
    return [f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"unexpected {sorted(set(got) - set(want))}, units differ for "
            f"{sorted(k for k in set(got) & set(want) if got[k] != want[k])}"]


def main():
    ap = argparse.ArgumentParser(description="Build the simulator and run one benchmark workload.")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float,
                    help="override every point's scale (self-tests); pins hold the default scale")
    ap.add_argument("--write-pins", action="store_true", help="regenerate perfbench/pins.txt")
    args = ap.parse_args()
    if not args.write_pins and not args.workload:
        ap.error("--workload is required")

    try:
        cache = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    cmd = [os.path.join(BUILD, "hm_perfbench"), "--work-dir", work]
    if args.write_pins:
        cmd += ["--write-pins", PINS]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--pins", PINS]
        if args.scale is not None:
            cmd += ["--scale", repr(args.scale)]

    commit = git_commit()
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "build_type": cache.get("CMAKE_BUILD_TYPE"),
            "hm_native_arch": cache.get("HM_NATIVE_ARCH"), "git_commit": commit,
            "source_digest": None if commit else source_digest(), "loadavg_before": loadavg()}
    timeout = None if args.write_pins else max(RUN_TIMEOUT_S, args.seconds + 110)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"no result within {timeout} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_after"] = loadavg()
    host["elapsed_s"] = round(time.monotonic() - started, 3)
    if args.write_pins:
        return proc.returncode

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from hm_perfbench (exit {proc.returncode})")
        return 1
    problems = validate(result, args.trace)
    for p in problems:
        log(p)
    if problems:
        return 1
    details["host"] = host
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
