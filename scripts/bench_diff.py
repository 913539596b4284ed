#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json files and emit a markdown report.

Usage: bench_diff.py PREVIOUS_DIR CURRENT_DIR

CI calls this from the bench-trajectory job: PREVIOUS_DIR is the cached
snapshot of the last run's numbers (may be empty on the first run or after
a cache eviction), CURRENT_DIR holds the artifacts just produced.  The
report goes to stdout; the workflow tees it into $GITHUB_STEP_SUMMARY and
into the consolidated bench-trajectory artifact.

Only the Python standard library is used.  Unknown JSON shapes are fine:
every numeric leaf is flattened to a dotted path and diffed, and a small
allowlist of suffixes marks which metrics are throughput-like (higher is
better) versus latency-like (lower is better) so the arrows point the
right way.
"""

import json
import os
import sys

# Suffix → direction. +1 means higher is better (throughput), -1 means
# lower is better (seconds, latency, memory).  Paths whose leaf matches no
# suffix are reported without a verdict arrow.
DIRECTIONS = [
    ("_per_s", +1),
    ("per_sec", +1),
    ("throughput", +1),
    ("speedup", +1),
    ("mips", +1),
    ("accuracy", +1),
    # fig5 per-model entries (bench fig5 --json) and the nn gate's
    # throughput/speedup fields otherwise fall through to the generic
    # suffixes above
    ("accuracy_mean", +1),
    ("accuracy_std", -1),
    ("evasion", +1),
    ("evasion_rate", +1),
    ("front_points", +1),
    ("cost_multiplier", -1),
    ("_seconds", -1),
    ("seconds", -1),
    ("_ms", -1),
    ("_us", -1),
    ("latency", -1),
    ("rss_mb", -1),
    ("_mib", -1),
    ("bytes", -1),
]

# A trailing engine tag names which engine a metric measured, not what the
# metric is: "mips_vm" and "execs_per_s_ref" are judged by "mips" and
# "execs_per_s".
ENGINE_TAGS = ("_vm", "_ref", "_fmat")

# Relative change below this is reported as "~" (noise floor for shared CI
# runners; quick-mode runs jitter well past a few percent).
NOISE = 0.05


def flatten(obj, prefix=""):
    """Yield (dotted_path, number) for every numeric leaf in a JSON value.

    List items that all carry a unique string "name" field are keyed by that
    name rather than their index, so a metric keeps its identity when a
    section gains, loses, or reorders entries between runs (quick-mode
    emitters may drop empty sections entirely)."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield prefix, float(obj)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from flatten(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        names = [v.get("name") if isinstance(v, dict) else None for v in obj]
        by_name = (
            len(obj) > 0
            and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)
        )
        for i, v in enumerate(obj):
            key = names[i] if by_name else i
            yield from flatten(v, f"{prefix}[{key}]")


def load_dir(path):
    """Map 'BENCH_x.json:dotted.path' → value for every file in path."""
    out = {}
    if not os.path.isdir(path):
        return out
    for name in sorted(os.listdir(path)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(path, name)) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"<!-- skipped {name}: {e} -->", file=sys.stderr)
            continue
        stem = name[len("BENCH_") : -len(".json")]
        for key, val in flatten(data):
            out[f"{stem}:{key}"] = val
    return out


def direction(path):
    leaf = path.rsplit(".", 1)[-1].rsplit(":", 1)[-1].lower()
    for tag in ENGINE_TAGS:
        if leaf.endswith(tag):
            leaf = leaf[: -len(tag)]
            break
    for suffix, sign in DIRECTIONS:
        if leaf.endswith(suffix):
            return sign
    return 0


def fmt(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.4g}"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    prev = load_dir(sys.argv[1])
    cur = load_dir(sys.argv[2])

    print("## Bench trajectory")
    print()
    if not cur:
        print("No `BENCH_*.json` files found in the current run.")
        return 0
    if not prev:
        print(f"First recorded run ({len(cur)} metrics); no baseline to diff.")
        print()

    rows = []
    regressions = 0
    for key in sorted(cur):
        now = cur[key]
        before = prev.get(key)
        if before is None:
            rows.append((key, "—", fmt(now), "new"))
            continue
        delta = now - before
        rel = delta / abs(before) if before else (0.0 if delta == 0 else float("inf"))
        sign = direction(key)
        if abs(rel) < NOISE:
            verdict = "~"
        elif sign == 0:
            verdict = f"{rel:+.1%}"
        elif rel * sign > 0:
            verdict = f"▲ {rel:+.1%}"
        else:
            verdict = f"▼ {rel:+.1%}"
            regressions += 1
        rows.append((key, fmt(before), fmt(now), verdict))
    for key in sorted(prev):
        if key not in cur:
            rows.append((key, fmt(prev[key]), "—", "gone"))

    print("| metric | previous | current | change |")
    print("|---|---:|---:|---|")
    for key, before, now, verdict in rows:
        print(f"| `{key}` | {before} | {now} | {verdict} |")
    print()
    if prev:
        print(
            f"{regressions} metric(s) moved the wrong way beyond the "
            f"{NOISE:.0%} noise floor (informational; quick-mode CI numbers "
            "are noisy — EXPERIMENTS.md holds the reference runs)."
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
