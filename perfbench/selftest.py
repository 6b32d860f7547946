#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at reduced scale.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload for about a second on a small universe, untraced
and traced, and asserts that
  * every output check passed (correct, no failed request);
  * the result line carries exactly the metrics BENCHMARK.json names,
    each with its unit;
  * the run report holds the workload's per-layer detail, and the traced
    run wrote a loadable Chrome trace;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCALE = "0.05"

# Per-layer detail each workload's run report must hold (ms unless noted).
DETAIL = {
    "crosswalk_oneshot": [],
    "crosswalk_cached": ["core.cache_hit_ms", "core.cache_miss_ms"],
    "portal_us": ["core.realign_many_ms", "core.realign_many_1t_ms",
                  "core.batch_run_ms", "core.execute_panel_ms",
                  "core.pipeline_create_ms"],
    "geo_build": ["partition.overlay_ms", "partition.measure_dm_ms",
                  "partition.dm_from_points_ms", "partition.aggregate_points_ms",
                  "partition.create_ms"],
}
# Per-layer metrics that must read non-zero on a workload's traced run.
NONZERO = {
    "crosswalk_oneshot": ["sparse.hashed_bytes"],
    "crosswalk_cached": ["core.cache_hit_ratio", "core.cache_hit_cost_ratio",
                         "core.cache_miss_cost_ratio", "sparse.hashed_bytes"],
    "portal_us": ["sparse.aligned", "common.pool_efficiency",
                  "core.batch_columns_per_s", "sparse.panel_nnz_per_s"],
    "geo_build": ["partition.overlay_cells", "partition.overlay_cells_per_s",
                  "partition.measure_dm_cells_per_s", "partition.points_per_s",
                  "sparse.hashed_bytes"],
}
ALWAYS_NONZERO = ["core.compile_ms", "sparse.prepare_ms", "core.execute_dm_ms",
                  "core.execute_agg_ms", "linalg.learn_weights_ms",
                  "synth.generate_s"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900, check=False)


def check_run(spec, workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in wanted], sorted(metrics)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        for name in metrics:
            assert metrics[name]["value"] > 0, (workload, name)
        return
    for name in ALWAYS_NONZERO + NONZERO[workload]:
        assert metrics[name]["value"] > 0, (workload, name)
    assert metrics["sparse.aligned"]["value"] == (workload == "portal_us"), workload
    reports = os.path.join(build_dir(), "reports")
    with open(os.path.join(reports, f"{workload}-seed7-trace1.json")) as f:
        report = json.load(f)
    for name in DETAIL[workload]:
        assert report["detail"][name]["value"] > 0, (workload, name)
        assert report["detail"][name]["unit"] == "ms", (workload, name)
    with open(os.path.join(reports, f"{workload}-seed7.trace.json")) as f:
        events = json.load(f)["traceEvents"]
    assert any(e["name"] == "request" for e in events), workload


def check_without_sources():
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse."""
    bare = os.path.join(build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    proc = run("crosswalk_oneshot", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without library sources"
    assert "correct" not in proc.stdout, "printed a result without sources"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(workloads) == sorted(DETAIL), workloads
    for workload in workloads:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} trace={trace}")
    check_without_sources()
    print("ok  refuses to run without library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
