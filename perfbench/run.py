#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload train|serve|sync --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # the harness helpers' unit tests

Run from the repository root. Builds the harness and the library from
source into .bench_build/perfbench (Release), runs one workload in one
process, and prints the harness's report followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics (a layer the workload does not
exercise reports 0) and the spans are written under
.bench_build/perfbench/run-<workload>/traces/. The full result, with the
machine and build facts, goes to .bench_build/perfbench/results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def contract_metrics(spec, result, trace):
    """The metrics the contract asks for, from the harness's result."""
    if trace:
        wanted, measured = spec["per_layer"], result["per_layer"]
    else:
        wanted, measured = spec["end_to_end"], result["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise ValueError(f"harness reported metrics BENCHMARK.json lacks: {unknown}")
    out, idle = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} was not measured")
            idle.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, idle


def harness_timeout(seconds):
    """Wall-time limit of one harness run: the measured seconds (a traced run
    measures them twice, half each time), the repeated set-up and the checks,
    with room for a slow host."""
    return 2 * seconds + 60


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode

    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log(f"--workload must be one of {sorted(workloads)}")
        return 2
    run_dir = os.path.join(BUILD, "run-" + args.workload)
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "wms_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", run_dir]
    budget = harness_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {budget:.0f} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"harness failed (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    try:
        metrics, idle = contract_metrics(spec, result, args.trace == 1)
    except ValueError as e:
        log(str(e))
        return 1
    result["idle_layers"] = idle
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out_path = os.path.join(
        BUILD, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)

    print("\n".join(lines[:-1]))
    if idle:
        print("  idle layers (reported as 0): " + ", ".join(idle))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
