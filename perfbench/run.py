#!/usr/bin/env python3
"""Benchmark launcher for compsyn.

Builds the library from the repository's src/ and the benchmark program in a
build tree of its own, then runs one workload:

    python3 perfbench/run.py --workload resynth --seed 1 --seconds 20 --trace 0

Other entry points:

    python3 perfbench/run.py --selftest            # the checks' own tests
    python3 perfbench/run.py --make-reference 1-10 # resynth_parallel reference

Run it from the repository root. The build tree is $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last stdout line is the result
JSON; build output goes to stderr. An untraced run's setup_s is the median
of cold set-ups timed in fresh processes around the run (README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "resynth_parallel.txt")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("error: no src/ next to the benchmark; run it from a full checkout",
              file=sys.stderr)
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs cmd to completion, forwarding its output; returns its exit code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# setup_s is the median of SETUP_SAMPLES cold set-ups, each in a fresh
# process: half just before the run, the run's own, and half just after it.
SETUP_SAMPLES = 21


def cold_setups(program, workload, seed, n):
    """Times n cold set-ups, each in a fresh process from just before it is
    spawned; returns the times in seconds, or None on an error."""
    out = []
    for _ in range(n):
        cmd = [program, "--workload", workload, "--seed", str(seed), "--setup-only", "1",
               "--start-ns", str(time.monotonic_ns())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return None
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_untraced(cmd, program, workload, seed):
    """Runs the untraced workload between two batches of cold set-ups and
    prints its output with setup_s replaced by the median set-up."""
    before = cold_setups(program, workload, seed, SETUP_SAMPLES // 2)
    if before is None:
        return 2
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    after = cold_setups(program, workload, seed, SETUP_SAMPLES // 2)
    try:
        result = json.loads(lines[-1])
        setup = result["metrics"]["setup_s"]
    except (IndexError, ValueError, KeyError):
        result = None
    if result is None or after is None:
        sys.stdout.write(out)
        return proc.returncode or 2
    setup["value"] = statistics.median(before + [setup["value"]] + after)
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--make-reference", metavar="LO-HI")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return run([os.path.join(build_dir(), "perfbench_selftest")])

    if not build("perfbench_main"):
        return 2
    program = os.path.join(build_dir(), "perfbench_main")
    if args.make_reference:
        return run([program, "--make-reference", REFERENCE, "--seeds", args.make_reference])
    if not args.workload:
        ap.error("--workload is required")

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # Set-up is timed from here: process creation is part of a cold start.
    cmd += ["--start-ns", str(time.monotonic_ns())]
    if args.trace:
        return run(cmd)
    return run_untraced(cmd, program, args.workload, args.seed)


if __name__ == "__main__":
    sys.exit(main())
