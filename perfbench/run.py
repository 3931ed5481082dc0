#!/usr/bin/env python3
"""Benchmark of the cooloptd planning daemon.

Builds cooloptd and the load generator from this source tree (CMake, into
.bench_build/), then runs one workload:

    python3 perfbench/run.py --workload plan-n2k-cycle --seed 1 \
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (and prints a per-layer table on
standard error). Other modes:

    --workload all           every workload in turn, one result line each
    --held-out-seed N        also run each workload on seed N and print
                             both results side by side
    --selftest               the benchmark's own unit tests

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["plan-n200-mix", "plan-n2k-cycle", "plan-n2k-churn",
             "fleetplan-n10k"]
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ["cooloptd", "perfbench_loadgen", "perfbench_selftest"]
# One run must end within 180 s; the load generator gets most of it.
RUN_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds into BUILD_DIR; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    steps = [configure,
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def binary(name):
    if name == "cooloptd":
        return os.path.join(BUILD_DIR, "coolopt", "tools", "cooloptd")
    return os.path.join(BUILD_DIR, name)


def run_child(argv, timeout_s):
    """Runs argv in its own process group and always reaps the whole group.

    Returns (exit code, stdout). On timeout the group gets SIGTERM, then
    SIGKILL after a grace period, and the exit code is None.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(argv))
        return None, ""
    finally:
        for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, None)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
        proc.wait()


def run_workload(workload, seed, seconds, trace):
    """One run; returns the parsed result object, or None on any failure."""
    os.makedirs(WORK_DIR, exist_ok=True)
    argv = [binary("perfbench_loadgen"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--cooloptd", binary("cooloptd"),
            "--work-dir", WORK_DIR]
    code, out = run_child(argv, RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        log("%s seed %d: no result (exit %s)" % (workload, seed, code))
        return None
    result = json.loads(lines[-1])
    if code != 0 or not result.get("correct") or result.get("failed"):
        log("%s seed %d: FAILED (exit %s)" % (workload, seed, code))
        return None
    return result


def print_side_by_side(workload, main_seed, main, held_seed, held):
    log("\n%s: seed %d vs held-out seed %d" % (workload, main_seed, held_seed))
    for name, metric in main["metrics"].items():
        other = held["metrics"][name]["value"]
        log("  %-36s %14.6g %14.6g %s" % (name, metric["value"], other,
                                          metric["unit"]))


def selftest():
    code, out = run_child([binary("perfbench_selftest")], RUN_TIMEOUT_S)
    sys.stderr.write(out)
    return 0 if code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if shutil.which("cmake") is None:
        log("missing tool: cmake")
        return 2
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("perfbench must run from a coolopt source checkout")
        return 2
    try:
        build()
    except RuntimeError as error:
        log(str(error))
        return 2
    if args.selftest:
        return selftest()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        if args.held_out_seed is not None:
            held = run_workload(workload, args.held_out_seed, args.seconds,
                                args.trace)
            if held is None:
                return 1
            print_side_by_side(workload, args.seed, result, args.held_out_seed,
                               held)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
