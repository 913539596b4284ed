#!/usr/bin/env python3
"""Run one perfbench workload in alternating parent/change pairs and judge
every end-to-end metric.

Usage: perf_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
                     [--seed K] [--seconds S] [--toy]

PARENT_DIR and CHANGE_DIR are two yali checkouts (say, a clone of the
parent commit and the working tree).  Each pair runs
`python3 perfbench/run.py --workload W --seed K --seconds S --trace 0` once
in each checkout; even pairs start with the parent, odd pairs with the
change, so drift on a shared host falls on both sides.  Every run is
printed as it finishes.

Then, for each end_to_end metric of CHANGE_DIR's BENCHMARK.json, it prints
each side's median and quartiles, the pairs the change won (ties count for
neither side) and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a relative change);
  unresolved  the parent's own quartile spread exceeds the bound, so the
              runs cannot tell (unless every change run beats every
              parent run);
  gain        the change won at least 9 of every 10 pairs and the medians
              differ by more than the parent's quartile spread;
  same        none of these.

It also prints failed/attempted operations for each side, and exits 1 if
any run fails (non-zero exit, no JSON, failed operations or incorrect
output) or any metric reads worse.  It changes nothing in either checkout
apart from the benchmark's own build directory.  Only the Python standard
library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, args):
    """One run.py invocation in checkout root: the parsed JSON line, or
    None (with the reason printed) when the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    cmd += ["--toy"] * args.toy
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    except json.JSONDecodeError:
        out = None
    if out is None:
        tail = "\n".join((r.stderr or r.stdout).strip().splitlines()[-5:])
        print(f"  run failed in {root} (exit {r.returncode}):\n{tail}", flush=True)
    return out


def quartiles(xs):
    """(q1, median, q3) of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(metric, parent, change, wins):
    """The verdict on one metric from both sides' values and the change's
    wins."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    # positive = the change is worse
    rel = sign * (cm - pm) / pm
    if rel > metric["bound"]:
        return "worse"
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if (p3 - p1) / pm > metric["bound"] and not beats_all:
        return "unresolved"
    if 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    pairs = []  # one {side: metrics} per pair; a failed run leaves its side out
    ops = {side: [0, 0] for side in sides}  # failed, attempted
    broken = 0
    for k in range(args.pairs):
        pair = {}
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out = run_once(sides[side], args)
            if out is None:
                broken += 1
                continue
            ops[side][0] += out["failed"]
            ops[side][1] += out["attempted"]
            if out["failed"] or not out["correct"]:
                broken += 1
            pair[side] = out["metrics"]
            vals = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                            for m in metrics)
            print(f"pair {k} {side:6s} {vals}  failed {out['failed']}/{out['attempted']}"
                  f"{'' if out['correct'] else '  INCORRECT'}", flush=True)
        pairs.append(pair)

    complete = [pair for pair in pairs if len(pair) == 2]
    n = len(complete)
    worse = False
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds} s, {n} complete pairs")
    for side in sides:
        print(f"  {side:6s} failed/attempted {ops[side][0]}/{ops[side][1]}")
    if n == 0:
        return 1
    for m in metrics:
        p = [pair["parent"][m["name"]]["value"] for pair in complete]
        c = [pair["change"][m["name"]]["value"] for pair in complete]
        better = (lambda a, b: a < b) if m["better"] == "lower" else (lambda a, b: a > b)
        wins = sum(better(b, a) for a, b in zip(p, c))
        v = verdict(m, p, c, wins)
        worse |= v == "worse"
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        print(f"  {m['name']:12s} parent {pm:.4g} [{p1:.4g}-{p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}-{c3:.4g}]  {100 * (cm - pm) / pm:+.1f}%  "
              f"change won {wins}/{n}  {v}")
    return 1 if broken or worse else 0


if __name__ == "__main__":
    sys.exit(main())
