#!/usr/bin/env python3
"""Self-test of the dpg benchmark, at tiny sizes.

    python3 dpgbench/smoke_test.py

Runs every workload end to end through run.py with --smoke, untraced and
traced. Asserts that every metric BENCHMARK.json names is present, finite and
in its unit; that the workload's named figures are printed with units; that
no oracle check fails; that one corrupted value is caught; and that the
benchmark fails without a result when the library sources are missing.
Exits 0 on success.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"

FIGURES = {
    "solve": ["sssp_ms", "sssp_fp_ms", "bfs_ms", "cc_ms", "fused3_ms", "failed_share"],
    "serve": ["query_p50_ms", "query_p99_ms", "max_qps", "capacity_qps", "hit_share",
              "failed_share"],
    "stream": ["fresh_p50_ms", "fresh_p95_ms", "warm_share", "failed_share"],
}

failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def run(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "dpgbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=root)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    figures = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "figure":
            figures[parts[1]] = (float(parts[2]), parts[3])
    return json.loads(lines[-1]), figures, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in ("solve", "serve", "stream"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            expect(proc.returncode == 0, "%s exited %d: %s" % (tag, proc.returncode,
                                                               proc.stderr[-500:]))
            if proc.returncode != 0:
                continue
            result, figures, lines = parse(proc)
            expect(result["correct"] is True and result["failed"] == 0,
                   "%s: oracle mismatch (%d of %d failed)" %
                   (tag, result["failed"], result["attempted"]))
            expect(result["attempted"] >= 1, tag + ": nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(sorted(got) == sorted(want),
                   "%s: metrics %s, want %s" % (tag, sorted(got), sorted(want)))
            for name, m in got.items():
                expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                       "%s: %s is not finite" % (tag, name))
                expect(m["unit"] == want.get(name), "%s: %s has unit %s" %
                       (tag, name, m["unit"]))
            for name in FIGURES[workload] if not trace else ["failed_share"]:
                expect(name in figures and figures[name][1] and math.isfinite(figures[name][0]),
                       "%s: figure %s missing" % (tag, name))
            expect(any(line.startswith("provenance {") for line in lines),
                   tag + ": no provenance line")
            if trace:
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed7-trace1.trace.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                expect(len(events) > 0, tag + ": empty span file")
                expect(all({"span", "parent", "op", "self_us"} <= set(e["args"])
                           for e in events), tag + ": span without ids or self time")

        # One flipped value must be caught.
        proc = run(workload, 0, "--corrupt")
        expect(proc.returncode == 0, workload + " --corrupt did not complete")
        if proc.returncode == 0:
            result, _, _ = parse(proc)
            expect(result["correct"] is False and result["failed"] >= 1,
                   workload + ": corrupted value not caught")

    # Without the library sources the benchmark must fail, printing no result.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "dpgbench"))
    proc = run("solve", 0, root=bare)
    expect(proc.returncode != 0, "bare tree: exited 0")
    expect("correct" not in proc.stdout, "bare tree: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
