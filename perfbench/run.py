#!/usr/bin/env python3
"""Run one workload of the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload train-grid --seed 1 --seconds 10 --trace 0

Run it from the root of a yali checkout.  It stages a dune workspace in
.bench_build/ws (the benchmark's own project from perfbench/_src beside
copies of lib/ and bin/), builds the benchmark program and the yali CLI
there, runs the workload in a fresh process (so every cache starts cold),
and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer list,
after an Amdahl table that restates the kernel speedups recorded in
BENCH_vm.json, BENCH_native.json and BENCH_nn.json as shares of this
workload.  --toy shrinks every input (the self-test uses it); --plant
adds a planted divergence to evade-grid.
"""

import argparse
import filecmp
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("train-grid", "evade-grid", "serve-mixed", "adapt-search")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165
WORKSPACE = ".bench_build/ws"
BENCH_EXE = WORKSPACE + "/_build/default/bench.exe"
CLI_EXE = WORKSPACE + "/_build/default/bin/yali_cli.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def mirror(src, dst):
    """Make directory dst a copy of src.  Files whose bytes are unchanged
    are left alone, so dune rebuilds only what changed."""
    os.makedirs(dst, exist_ok=True)
    names = set(os.listdir(src))
    for name in os.listdir(dst):
        path = os.path.join(dst, name)
        if name not in names or os.path.isdir(path) != os.path.isdir(os.path.join(src, name)):
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in names:
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            mirror(s, d)
        elif not (os.path.exists(d) and filecmp.cmp(s, d, shallow=False)):
            shutil.copyfile(s, d)


def stage():
    """The workspace: the benchmark's own project at its root, and the
    library and CLI sources it builds against."""
    os.makedirs(WORKSPACE, exist_ok=True)
    for name in os.listdir("perfbench/_src"):
        s, d = os.path.join("perfbench/_src", name), os.path.join(WORKSPACE, name)
        if not (os.path.exists(d) and filecmp.cmp(s, d, shallow=False)):
            shutil.copyfile(s, d)
    for tree in ("lib", "bin"):
        mirror(tree, os.path.join(WORKSPACE, tree))


def build():
    stage()
    # DUNE_CACHE=disabled keeps every build artifact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", WORKSPACE, "./bench.exe", "./bin/yali_cli.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")


def stop_group(pgid):
    """Kill what is left of the workload's process group (a serve daemon
    included) and wait until every member has exited."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(argv):
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("workload timed out")
    stop_group(proc.pid)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"workload exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def amdahl(values):
    """Restate each recorded kernel speedup as its share of this workload.

    A share is the layer's busy time over traced wall time times the
    domains it runs on.  saved_x is how many times slower the workload
    would run without the kernel's speedup; max_speedup is the most the
    native tier could give if it replaced the VM with compile time free."""
    get = lambda name: values.get(name, (0.0, ""))[0]
    wall, jobs = get("trace.wall_s"), max(1.0, get("exec.jobs"))
    share = lambda busy_s, domains: busy_s / (wall * domains) if wall > 0 else 0.0
    out, rows = {}, []
    vm = load_json("BENCH_vm.json") or {}
    kernels = next((k for k in vm.get("vm", []) if k.get("name") == "kernels"), None)
    if kernels:
        s = share(get("vm.run_s"), jobs)
        out["amdahl.vm.share"] = (s, "share")
        out["amdahl.vm.saved_x"] = ((1 - s) + s * kernels["speedup"], "x")
        out["ratio.vm_mips"] = (get("vm.mips") / kernels["mips_vm"], "x")
        rows.append(("vm vs reference interpreter", kernels["speedup"], s))
    native = (load_json("BENCH_native.json") or {}).get("kernels")
    if native:
        s = share(get("vm.run_s"), jobs)
        out["amdahl.native.max_speedup"] = (1 / ((1 - s) + s / native["speedup"]), "x")
        rows.append(("native vs vm", native["speedup"], s))
    cnn = (load_json("BENCH_nn.json") or {}).get("cnn")
    if cnn:
        s = share(get("ml.train_s.cnn"), 1)
        out["amdahl.nn.share"] = (s, "share")
        out["amdahl.nn.saved_x"] = ((1 - s) + s * cnn["step_speedup"], "x")
        out["ratio.cnn_rows_per_s"] = (get("ml.cnn_rows_per_s") / cnn["train_rows_per_s"], "x")
        rows.append(("cnn step vs reference", cnn["step_speedup"], s))
    print("amdahl: kernel, microbenchmark speedup, share of this workload")
    for name, k, s in rows:
        print(f"  {name:28s} {k:6.2f}x {100 * s:7.2f}%")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--plant", action="store_true")
    args = ap.parse_args()

    spec = load_json("BENCHMARK.json")
    if not (os.path.isdir("lib") and os.path.isdir("bin") and spec):
        fail("run this from the root of a yali checkout")
    build()

    argv = [BENCH_EXE, args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cli", CLI_EXE]
    argv += ["--toy"] * args.toy + ["--plant"] * args.plant
    raw = run_workload(argv)
    values = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
    if args.trace:
        values.update(amdahl(values))

    metrics = {}
    for m in spec["end_to_end" if args.trace == 0 else "per_layer"]:
        # a layer this workload never calls reads 0
        value, unit = values.get(m["name"], (None if args.trace == 0 else 0.0, m["unit"]))
        if value is None:
            fail(f"end-to-end metric {m['name']} was not measured")
        if unit != m["unit"]:
            fail(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        if not math.isfinite(value) or (args.trace == 0 and value <= 0):
            fail(f"{m['name']} has the unusable value {value}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
