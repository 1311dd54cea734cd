#!/usr/bin/env python3
"""Builds and runs the SuccinctEdge end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: lubm_cold_read, sensor_mixed_durable, lubm_sharded_read.

The benchmark program (perfbench/edgebench.cc) is compiled from this
checkout's src/ tree into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), configured on first use and rebuilt incrementally
afterwards. The run's
environment record (source digest, git sha when available, nproc,
compiler, build type, compile jobs) and edgebench's own record are
printed first; the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying every end_to_end metric of BENCHMARK.json with --trace 0 and every
per_layer metric with --trace 1. The exit code is non-zero on a wrong
answer, on a metric set that does not match BENCHMARK.json, and when the
engine sources are missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build(out_dir):
    """Configures (once) and builds edgebench; returns its path."""
    commands = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        commands.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", out_dir, "-j", str(build_threads())])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in commands:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "edgebench")


def source_digest():
    """sha256 over the engine sources and the benchmark, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def expected_metrics(spec, trace):
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "database.h")):
        fail("engine sources (src/) not found next to perfbench/")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("edgebench printed nothing (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("edgebench's last line is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    want = expected_metrics(spec, args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra), 3)

    env = {"env": {"git_sha": git_sha(), "source_sha256": source_digest(),
                   "nproc": os.cpu_count(), "build_type": "Release",
                   "compile_jobs": build_threads()}}
    print(json.dumps(env))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
