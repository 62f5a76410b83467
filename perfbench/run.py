#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The engine and the perfbench binary are
built from source into $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only re-check the build. The binary's report goes to
stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs the three workloads one after another and
ends with one JSON object whose metric names carry the workload as prefix.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_reports", "epc_lookup_server", "hot_set_ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this pass."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, result dict) or None."""
    work = os.path.join(out, f"work-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"{workload}: perfbench exited with code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: last line is not a JSON result")
        return None
    declared = declared_metrics(trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            log(f"{workload}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(got.items()) ^ set(declared.items()))}")
            return None
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        ran = run_one(binary, out, w, args.seed, args.seconds, args.trace)
        if ran is None:
            return 1
        lines, result = ran
        print("\n".join(lines), flush=True)
        if len(workloads) == 1:
            print(json.dumps(result), flush=True)
            return 0
        print(flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
