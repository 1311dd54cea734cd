#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py [--seconds 2]

Runs every workload of BENCHMARK.json for a short time, untraced and
traced, through perfbench/run.py, and fails unless each run exits 0 with
"correct": true and emits exactly the end_to_end (untraced) or per_layer
(traced) metrics BENCHMARK.json names, each a finite number, and with the
layers the workload exercises non-zero. It then copies BENCHMARK.json and
perfbench/ alone into an empty directory under the build tree and checks
that the benchmark refuses to run there (non-zero exit, no result line).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that must be non-zero on a workload that exercises
# their layer (0 elsewhere is expected: the layer sits idle there).
EXERCISED = {
    "lubm_cold_read": [
        "serve.execute_ms_p50", "sparql.parse_ms", "sparql.plan_ms",
        "sparql.execute_ms", "sparql.intermediate_rows_per_result",
        "store.tp_merge_join_ms", "store.tp_type_ms",
        "store.merge_join_share", "store.base_bytes", "store.dict_bytes",
        "bench.read_samples", "bench.layer_coverage_frac",
    ],
    "sensor_mixed_durable": [
        "serve.execute_ms_p50", "serve.result_cache_hit_ratio",
        "serve.plan_cache_hit_ratio",
        "serve.result_cache_invalidations_per_batch", "sparql.parse_ms",
        "sparql.execute_ms", "store.base_bytes", "core.insert_ms_p50",
        "core.insert_ms_p99", "core.fork_ms_p50", "core.fold_s",
        "core.folds", "io.wal_sync_ms_p99", "io.wal_bytes_per_triple",
        "io.device_blocks_written", "io.checkpoint_s", "write_p50_ms",
        "write_p99_ms", "recover_s", "device_bytes_per_triple",
        "bench.read_samples", "bench.write_samples",
        "bench.layer_coverage_frac",
    ],
    "lubm_sharded_read": [
        "serve.execute_ms_p50", "sparql.parse_ms", "store.base_bytes",
        "dist.query_ms_p50", "dist.fanout_mean",
        "dist.subqueries_per_query", "dist.pushdown_ratio",
        "bench.read_samples", "bench.layer_coverage_frac",
    ],
}


def run(cwd, workload, seconds, trace, seed=7):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, seconds, trace):
    label = "%s trace=%d" % (workload, trace)
    proc = run(ROOT, workload, seconds, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (label, proc.returncode,
                                      proc.stderr[-3000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if result.get("correct") is not True:
        errors.append(label + ": oracle check failed")
    if not result.get("attempted", 0) >= 1:
        errors.append(label + ": nothing attempted")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append("%s: metric names differ: missing %s, extra %s" % (
            label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want.get(name):
            errors.append("%s: %s has unit %s" % (label, name, m.get("unit")))
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append("%s: %s is not a finite number" % (label, name))
    nonzero = EXERCISED[workload] if trace else list(want)
    for name in nonzero:
        if got.get(name, {}).get("value", 0) == 0:
            errors.append("%s: %s is 0" % (label, name))
    print("%s: ok=%s attempted=%d failed=%d" % (
        label, not errors, result["attempted"], result["failed"]))
    return errors


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "lubm_cold_read", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare checkout: the benchmark ran without the engine sources"]
    print("bare checkout: refused (exit %d)" % proc.returncode)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, args.seconds, trace)
    errors += check_refuses_without_sources()
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    print("SMOKE OK" if not errors else "SMOKE FAILED (%d)" % len(errors))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
