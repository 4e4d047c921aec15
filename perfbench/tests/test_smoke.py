"""Tiny-scale smoke runs of each workload: every named metric is emitted
with its unit, answers match the oracle, and layers on the workload's
path report work."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be non-zero on each workload: the layers
#: on its path.  Fractions that are legitimately 0 (no hedges, no
#: rejections) are left out.
ON_PATH = {
    "routed-mixed": (
        "kernels.ms_per_query", "kernels.time_share", "kernels.us_per_elem",
        "kernels.scalar_calls_per_query", "kernels.batch_calls_per_query",
        "vptree.query_ms", "vptree.self_ms", "vptree.dists_per_query",
        "service.admission_wait_ms", "service.submit_overhead_ms",
        "cluster.router.execute_ms", "cluster.router.overhead_ms",
        "cluster.router.dists_per_query", "cluster.shard.submit_ms",
        "cluster.shard.submit_max_ms", "cluster.shard.attempts_per_query",
    ),
    "text-index": (
        "kernels.ms_per_query", "kernels.time_share", "kernels.us_per_elem",
        "kernels.batch_calls_per_query", "kernels.elems_per_batch_call",
        "mtree.query_ms", "mtree.self_ms", "mtree.dists_per_query",
        "mtree.nodes_per_query", "mtree.results_per_dist",
        "service.admission_wait_ms", "service.submit_overhead_ms",
    ),
    "ingest-read": (
        "kernels.ms_per_query", "kernels.us_per_elem",
        "kernels.batch_calls_per_query", "mtree.query_ms",
        "mtree.dists_per_query", "mtree.nodes_per_query", "mtree.clone_ms",
        "mtree.insert_us_per_obj", "ingest.append_ms",
        "ingest.wal_bytes_per_obj", "ingest.apply_ms", "ingest.clone_share",
        "ingest.checkpoint_ms", "ingest.snapshot_bytes_per_obj",
    ),
}


def test_benchmark_json_names_what_the_benchmark_emits():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = workloads.WORKLOADS[name](5, 0.5, trace, workloads.TINY)
    assert result.correct, result.mismatches
    assert result.attempted > 0 and result.failed == 0

    line = run.result_line(result, trace)
    json.dumps(line)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    for metric in run.END_TO_END:
        assert result.end_to_end[metric] > 0, metric

    env = {"workload": name, "seed": 5, "seconds": 0.5, "trace": trace}
    text = "\n".join(run.render(env, result, None))
    shown = run.END_TO_END | run.PER_LAYER if trace else run.END_TO_END
    for metric, unit in shown.items():
        assert any(
            row.split()[:1] == [metric] and row.split()[-1] == unit
            for row in text.splitlines()
        ), metric
    for metric, value in result.extra.items():
        assert f"{metric}" in text and run.EXTRA_UNITS[metric] in text

    if trace:
        for metric in ON_PATH[name]:
            assert result.per_layer[metric] > 0, metric


def test_ingest_reports_write_side_end_to_end_metrics():
    result = workloads.ingest_read(6, 0.5, False, workloads.TINY)
    assert set(result.extra) == {
        "insert_obj_per_s", "append_p50_ms", "append_p95_ms",
        "visible_p50_ms", "visible_p95_ms", "recover_s",
    }
    assert all(value > 0 for value in result.extra.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "text-index",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
