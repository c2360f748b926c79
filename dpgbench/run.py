#!/usr/bin/env python3
"""Builds and runs the dpg end-to-end benchmark.

    python3 dpgbench/run.py --workload solve|serve|stream --seed N \
        --seconds S --trace 0|1 [--smoke] [--corrupt]

Run from the repository root (any working directory works). The first run
configures and builds dpgbench/ (which compiles ../src) into .bench_build/;
later runs rebuild incrementally. The benchmark's own output is printed,
then a provenance line, and last one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the span file
goes to .bench_build/traces/. Every run's full record (figures, metrics,
provenance) is also written to .bench_build/results/.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dpgbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dpg library sources (src/) not found next to dpgbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if cmake_cache("CMAKE_BUILD_TYPE") is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dpgbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(BUILD, "dpgbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no dpgbench binary")
    return binary


def simd_tier(flags):
    # Mirrors dpg::simd::detect() (and scripts/bench_json.sh): the tier the
    # batch kernels pick on this CPU.
    for flag, tier in (("avx512f", "avx512"), ("avx2", "avx2"), ("sse4_2", "sse4")):
        if flag in flags:
            return tier
    return "scalar"


def provenance(args):
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "simd_detected": simd_tier(flags),
        "simd_forced": os.environ.get("DPG_SIMD_LEVEL", "auto"),
        "nproc": os.cpu_count(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "dpg_obs_disable": cmake_cache("DPG_OBS_DISABLE") or "OFF",
        "git_commit": commit or "unknown (not a git checkout)",
        "loadavg_at_start": list(os.getloadavg()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["solve", "serve", "stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one answer before its oracle check (self-test)")
    args = ap.parse_args()

    binary = build()
    prov = provenance(args)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")

    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s is not a finite number" % name)

    figures = {}
    for line in lines[:-1]:
        print(line)
        parts = line.split()
        if len(parts) >= 4 and parts[0] in ("figure", "metric"):
            figures[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    prov["wall_s"] = time.monotonic() - t0
    prov["ranks"] = figures.get("ranks", {}).get("value")
    print("provenance " + json.dumps(prov, sort_keys=True))

    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"result": result, "figures": figures, "provenance": prov}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
