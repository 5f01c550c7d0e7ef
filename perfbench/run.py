#!/usr/bin/env python3
"""Builds and runs the WarpLDA benchmark (see perfbench/README.md).

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark from the
checkout's sources into .bench_build/perfbench (Release, 4 jobs); later calls
rebuild incrementally. The workload's parameters are read from
perfbench/workloads.json and passed to the benchmark binary. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. Exit status: the benchmark's
(0 = every output check passed), or non-zero without a result when the
sources are missing or do not build.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "core" / "warp_lda.h").is_file():
        fail(f"the WarpLDA sources are not in {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j4", "--target", *targets],
        stdout=sys.stderr, stderr=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")


def workload_params(name):
    """The workload's parameters from workloads.json, as --param flags."""
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if name not in workloads:
        fail(f"unknown workload {name}; workloads.json has {sorted(workloads)}")
    flags = []
    for key, value in workloads[name]["params"].items():
        flags += ["--param", f"{key}={value!r}"]
    return flags


def check_metric_names(result_line, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = set(json.loads(result_line)["metrics"])
    if declared != printed:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(declared - printed)}, "
             f"extra {sorted(printed - declared)}", code=1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    params = workload_params(args.workload)
    build(["perfbench"])
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(traces), *params]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    out = proc.stdout.rstrip("\n")
    lines = out.split("\n")
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        check_metric_names(lines[-1], args.trace == 1)
    sys.stdout.write(out + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
