#!/usr/bin/env python3
"""Builds graphalign and the perfbench program, runs workloads, and prints
one JSON result line.

    python3 perfbench/run.py --workload dense-lap --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a graphalign checkout. The first run configures and
builds into .bench_build/ (a few minutes); later runs only check the build.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics, including the single-threaded baseline
(GRAPHALIGN_THREADS=1) behind parallel.speedup. Every line before the last
is progress; the last line is the result. `--workload all` runs the four
workloads in turn (sparse-lsh and serve-mix too, which BENCHMARK.json
leaves out; see perfbench/WORKLOADS.md), prints each metric as "workload
metric value unit", and names the metrics of its result line
"workload/metric".
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["dense-lap", "spectral-ot", "sparse-lsh", "serve-mix"]
BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_DIR = os.path.join(".bench_build", "work")
# Compilers and the programs keep their temporary files inside the checkout.
TMP_DIR = os.path.abspath(os.path.join(".bench_build", "tmp"))
PERFBENCH = os.path.join(BUILD_DIR, "perfbench")
GRAPHALIGN = os.path.join(BUILD_DIR, "src", "cli", "graphalign")
# Wall-time budget of one workload's perfbench processes, after the build.
RUN_BUDGET_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run from the root of a graphalign checkout (no CMakeLists.txt/src here)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_PROJECT_graphalign_INCLUDE=" +
                          os.path.join(here, "perfbench.cmake")])
        steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                      "--target", "perfbench", "graphalign"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("build failed: %s (see %s)" % (" ".join(cmd), log_path))


def run_perfbench(args, workload, mode, workdir, deadline, env=None):
    cmd = [PERFBENCH, mode, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--graphalign", GRAPHALIGN]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s %s timed out" % (workload, mode))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s %s exited with %d" % (workload, mode, proc.returncode))
    for line in lines[:-1]:
        print("[%s %s] %s" % (workload, mode, line))
    return json.loads(lines[-1])


def run_workload(args, workload):
    workdir = os.path.join(WORK_DIR, "%s-%d-%d" % (workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        result = run_perfbench(args, workload, "run", workdir, deadline)
        if args.trace:
            # The same pass under GRAPHALIGN_THREADS=1: the baseline of
            # parallel.speedup, whose mappings must equal the traced pass's.
            env = dict(os.environ, GRAPHALIGN_THREADS="1")
            base = run_perfbench(args, workload, "baseline", workdir + "-1t",
                              deadline, env)
            mismatched = sum(1 for a, b in zip(result["digests"], base["digests"])
                             if a != b)
            if len(result["digests"]) != len(base["digests"]):
                mismatched += 1
            if mismatched:
                print("failed: %d mappings differ from the GRAPHALIGN_THREADS=1 run"
                      % mismatched)
            result["correct"] = result["correct"] and base["correct"] and not mismatched
            result["attempted"] += base["attempted"] + len(base["digests"])
            result["failed"] += base["failed"] + mismatched
            result["metrics"]["parallel.run_s_1thread"] = {
                "value": base["pass_s"], "unit": "s"}
            result["metrics"]["parallel.speedup"] = {
                "value": base["pass_s"] / result["pass_s"], "unit": "x"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-1t", ignore_errors=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        result = run_workload(args, args.workload)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(args, workload)
            for name, m in one["metrics"].items():
                print("%-12s %-26s %16.6g %s" % (workload, name, m["value"], m["unit"]))
                result["metrics"][workload + "/" + name] = m
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))


if __name__ == "__main__":
    main()
