#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size through perfbench/run.py, untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
names, with their units, that every independent check passes, and that a
planted divergence on evade-grid (a challenge transform that prints one
extra value) raises failed_share above 0.
"""

import json
import subprocess
import sys

from run import WORKLOADS


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy", *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if r.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit code {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: checks failed")
            print(f"ok   {workload} trace={trace}: {out['attempted']} checks passed")
    planted = run("evade-grid", 1, "--plant")
    if planted["metrics"]["failed_share"]["value"] > 0:
        print(f"ok   planted divergence caught by {planted['failed']} checks")
    else:
        problems.append("the planted divergence was not caught")
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
