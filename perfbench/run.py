"""Serving-path benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload routed-mixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload text-index --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing probed;
``--trace 1`` runs the same load untraced and then traced, and reports
the per-layer metrics, the layer table and the tracing overhead.  The
report goes to standard output; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full result,
stamped with its environment, and (traced) the spans are written under
``.perfbench_out/``.  The exit code is 1 when any answer disagrees with
the linear-scan oracle, 2 when the program's sources are missing.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Gated end-to-end metrics (``--trace 0``), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "query_qps": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics of one workload only, printed with their units.
EXTRA_UNITS = {
    "dists_per_query": "count",
    "nodes_per_query": "count",
    "insert_obj_per_s": "obj/s",
    "append_p50_ms": "ms",
    "append_p95_ms": "ms",
    "visible_p50_ms": "ms",
    "visible_p95_ms": "ms",
    "recover_s": "s",
}

#: Per-layer metrics (``--trace 1``); 0 where the layer is not on the
#: workload's path.
PER_LAYER = {
    "kernels.ms_per_query": "ms",
    "kernels.time_share": "ratio",
    "kernels.us_per_elem": "us",
    "kernels.batch_calls_per_query": "count",
    "kernels.elems_per_batch_call": "count",
    "kernels.scalar_calls_per_query": "count",
    "mtree.query_ms": "ms",
    "mtree.self_ms": "ms",
    "mtree.dists_per_query": "count",
    "mtree.nodes_per_query": "count",
    "mtree.results_per_dist": "ratio",
    "mtree.clone_ms": "ms",
    "mtree.insert_us_per_obj": "us",
    "vptree.query_ms": "ms",
    "vptree.self_ms": "ms",
    "vptree.dists_per_query": "count",
    "service.admission_wait_ms": "ms",
    "service.submit_overhead_ms": "ms",
    "service.rejected_frac": "ratio",
    "cluster.router.execute_ms": "ms",
    "cluster.router.overhead_ms": "ms",
    "cluster.router.dists_per_query": "count",
    "cluster.router.pruned_frac": "ratio",
    "cluster.router.hedged_frac": "ratio",
    "cluster.shard.submit_ms": "ms",
    "cluster.shard.submit_max_ms": "ms",
    "cluster.shard.attempts_per_query": "count",
    "ingest.append_ms": "ms",
    "ingest.wal_bytes_per_obj": "B",
    "ingest.apply_ms": "ms",
    "ingest.clone_share": "ratio",
    "ingest.checkpoint_ms": "ms",
    "ingest.snapshot_bytes_per_obj": "B",
    "ingest.replayed_records": "count",
    "trace.overhead_pct": "%",
}


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(args: argparse.Namespace, sizes: Dict[str, Any]) -> Dict[str, Any]:
    """Everything that decides whether two results may be compared."""
    import numpy

    from repro.metrics.kernels import active_backend

    import workloads

    return {
        "commit": git_commit(ROOT),
        "nproc": workloads.cores(),
        "kernel_backend": active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "sizes": sizes,
    }


def render(env: Dict[str, Any], result: Any, layer_table: Optional[str]) -> List[str]:
    lines = [
        f"perfbench {env['workload']} seed={env['seed']} "
        f"seconds={env['seconds']} trace={int(env['trace'])}",
        "environment: " + json.dumps(
            {k: v for k, v in env.items() if k not in ("workload", "seed", "seconds", "trace")}
        ),
    ]
    lines += result.report
    lines.append("end-to-end:")
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<22} {result.end_to_end[name]:>14.4f} {unit}")
    for name, value in result.extra.items():
        lines.append(f"  {name:<22} {value:>14.4f} {EXTRA_UNITS[name]}")
    if env["trace"]:
        lines.append("per-layer (traced phase):")
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<34} {result.per_layer.get(name, 0.0):>14.4f} {unit}")
        if layer_table:
            lines.append(layer_table)
    if result.mismatches:
        lines.append(f"ORACLE MISMATCHES ({len(result.mismatches)}):")
        lines += [f"  {m}" for m in result.mismatches[:20]]
    else:
        lines.append("answers: all match the linear-scan oracle")
    return lines


def result_line(result: Any, trace: bool) -> Dict[str, Any]:
    """The last line of the report: end-to-end metrics untraced,
    per-layer metrics traced."""
    if trace:
        metrics = {n: {"value": result.per_layer.get(n, 0.0), "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": result.end_to_end[n], "unit": u}
                   for n, u in END_TO_END.items()}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("routed-mixed", "text-index", "ingest-read"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    result = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace)
    )
    env = environment(args, result.sizes)
    table = None
    out = workloads.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracing

        recorder = result.recorder
        table = tracing.layer_table(
            result.spans, result.traced_queries, env["kernel_backend"]
        )
        recorder.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print("\n".join(render(env, result, table)))

    line = result_line(result, bool(args.trace))
    with open(out / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({
            "environment": env,
            **line,
            "end_to_end": result.end_to_end,
            "extra": result.extra,
            "per_layer": result.per_layer,
            "report": result.report,
            "mismatches": result.mismatches,
            "layer_table": table,
        }, handle, indent=2)
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
