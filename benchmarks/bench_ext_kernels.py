"""Extension: batched distance kernels — single-thread speedup and
worker scaling.

The cost model prices every query in distance computations, so the
distance kernel is the hot path of the whole reproduction.  This bench
measures what ``repro.metrics.kernels`` buys over the historical
one-``d(x, y)``-call-at-a-time evaluation:

1. **Edit-distance kernel speedup** — one-to-many over a keyword batch:
   pure-Python per-pair loop (the old hot path) vs. the batched numpy
   fallback vs. the native C kernel.  Acceptance bar: the active batched
   backend is >= 5x the pure-Python loop.
2. **Bounded-range kernel** — the banded early-exit variant against the
   exact kernel at M-tree range-query radii.
3. **Minkowski / Hamming / Jaccard kernel sweep** — batched vs. per-pair
   for the remaining registered metrics (informational rows).
4. **Service worker scaling** — an edit-distance ``QueryService`` at
   1/2/4/8 workers.  With the GIL-releasing native kernels this scales
   with cores; on a single-core runner the bar is only "does not
   collapse".

Each run above quick scale appends its rows to
``benchmarks/BENCH_kernels.json`` (newest last, capped) so the speedup
trajectory accumulates across revisions; quick-scale smoke runs leave the
tracked file untouched.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.datasets.keywords import keyword_dataset
from repro.experiments import format_table
from repro.metrics import (
    EditDistance,
    HammingDistance,
    JaccardDistance,
    L2,
    kernels,
)
from repro.metrics.strings import edit_distance
from repro.mtree import bulk_load, string_layout
from repro.service import MTreeBackend, QueryRequest, QueryService

import numpy as np

WORKER_COUNTS = (1, 2, 4, 8)
KERNELS_TRAJECTORY = Path(__file__).resolve().parent / "BENCH_kernels.json"
TRAJECTORY_KEEP = 50  # most recent records retained per file
SPEEDUP_FLOOR = 5.0


def _batched_backends():
    names = ["numpy"]
    if kernels.native_available():
        names.append("native")
    return names


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_edit_kernel_speedup(n_words: int, n_queries: int):
    words = list(keyword_dataset(n_words, seed=41).words)
    queries = words[:n_queries]

    def python_loop():
        for q in queries:
            [edit_distance(q, w) for w in words]

    baseline = _time(python_loop, 2)
    pairs = len(queries) * len(words)
    rows = [
        {
            "backend": "python loop",
            "time s": round(baseline, 4),
            "Mpairs/s": round(pairs / baseline / 1e6, 3),
            "speedup": 1.0,
        }
    ]
    for backend in _batched_backends():
        with kernels.use_backend(backend):

            def batched():
                for q in queries:
                    kernels.levenshtein_one_to_many(q, words)

            elapsed = _time(batched, 3)
        rows.append(
            {
                "backend": backend,
                "time s": round(elapsed, 4),
                "Mpairs/s": round(pairs / elapsed / 1e6, 3),
                "speedup": round(baseline / elapsed, 1),
            }
        )
    return rows


def run_bounded_kernel(n_words: int, n_queries: int):
    words = list(keyword_dataset(n_words, seed=42).words)
    queries = words[:n_queries]
    rows = []
    for backend in _batched_backends():
        with kernels.use_backend(backend):

            def exact():
                for q in queries:
                    kernels.levenshtein_one_to_many(q, words)

            exact_s = _time(exact, 3)
            for radius in (1, 3):

                def bounded():
                    for q in queries:
                        kernels.levenshtein_one_to_many_bounded(
                            q, words, radius
                        )

                bounded_s = _time(bounded, 3)
                rows.append(
                    {
                        "backend": backend,
                        "radius": radius,
                        "exact s": round(exact_s, 4),
                        "bounded s": round(bounded_s, 4),
                        "ratio": round(exact_s / bounded_s, 2),
                    }
                )
    return rows


def run_metric_kernel_sweep(n_items: int):
    rng = np.random.default_rng(43)
    vectors = list(rng.random((n_items, 8)))
    codes = [list(row) for row in rng.integers(0, 4, size=(n_items, 12))]
    sets = [
        frozenset(rng.choice(50, size=rng.integers(0, 12), replace=False))
        for _ in range(n_items)
    ]
    cases = [
        ("L2", L2(), vectors[0], vectors),
        ("hamming", HammingDistance(), codes[0], codes),
        ("jaccard", JaccardDistance(), sets[0], sets),
    ]
    rows = []
    for name, metric, probe, items in cases:

        def per_pair():
            [metric.distance(probe, item) for item in items]

        per_pair_s = _time(per_pair, 3)

        def batched():
            metric.one_to_many(probe, items)

        batched_s = _time(batched, 3)
        rows.append(
            {
                "metric": name,
                "backend": kernels.active_backend(),
                "per-pair s": round(per_pair_s, 5),
                "batched s": round(batched_s, 5),
                "speedup": round(per_pair_s / batched_s, 1),
            }
        )
    return rows


def run_service_scaling(n_words: int, n_queries: int):
    words = list(keyword_dataset(n_words, seed=44).words)
    metric = EditDistance()
    tree = bulk_load(words, metric, string_layout(25), seed=44)
    requests = [
        QueryRequest("range", word, radius=3.0, request_id=i)
        for i, word in enumerate(words[:n_queries])
    ]
    rows = []
    for workers in WORKER_COUNTS:
        service = QueryService(MTreeBackend(tree))
        report = service.run(requests, workers=workers)
        rows.append(
            {
                "workers": workers,
                "backend": kernels.active_backend(),
                "ok": report.count("ok"),
                "throughput qps": round(report.throughput_qps, 1),
                "p99 ms": round(
                    1e3 * report.latency_percentile(99, status="ok"), 3
                ),
            }
        )
    return rows


def append_kernels_trajectory(scale_name: str, sections) -> None:
    """Append this run's sections to the ``BENCH_kernels.json`` trajectory.

    The file is a JSON list of records, newest last, capped at
    ``TRAJECTORY_KEEP`` so the speedup curve across revisions stays
    readable without growing unboundedly.  Quick-scale runs are smoke
    tests, not measurements, and are not recorded.
    """
    if scale_name == "quick":
        return
    records = []
    if KERNELS_TRAJECTORY.exists():
        try:
            records = json.loads(KERNELS_TRAJECTORY.read_text())
        except (ValueError, OSError):
            records = []
    if not isinstance(records, list):
        records = []
    records.append(
        {
            "timestamp": round(time.time(), 3),
            "scale": scale_name,
            "native": kernels.native_available(),
            "sections": sections,
        }
    )
    records = records[-TRAJECTORY_KEEP:]
    KERNELS_TRAJECTORY.write_text(json.dumps(records, indent=2) + "\n")


def test_ext_kernel_speedup(benchmark, scale, show):
    n_words = max(500, scale.vector_size // 8)
    n_queries = max(10, scale.n_queries // 5)
    sections = {}

    def run_all():
        sections["edit_speedup"] = run_edit_kernel_speedup(
            n_words, n_queries
        )
        sections["bounded"] = run_bounded_kernel(n_words, n_queries)
        sections["metric_sweep"] = run_metric_kernel_sweep(
            max(300, n_words // 2)
        )
        return sections

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    show(
        format_table(
            sections["edit_speedup"],
            title=(
                "Extension - edit-distance kernel, one-to-many over "
                f"{n_words} words x {n_queries} queries "
                f"(active backend: {kernels.active_backend()})"
            ),
        )
    )
    show(
        format_table(
            sections["bounded"],
            title="Extension - bounded-radius kernel vs exact",
        )
    )
    show(
        format_table(
            sections["metric_sweep"],
            title="Extension - batched vs per-pair, other metrics",
        )
    )
    # The acceptance bar: the active batched backend beats the
    # pure-Python per-pair loop by >= 5x on the edit-distance hot path.
    best = max(row["speedup"] for row in sections["edit_speedup"])
    assert best >= SPEEDUP_FLOOR, (
        f"batched edit-distance speedup {best}x is below the "
        f"{SPEEDUP_FLOOR}x acceptance bar"
    )
    # Exact answers at every radius means the bounded kernel can only
    # help; it must never be pathologically slower than the exact one.
    for row in sections["bounded"]:
        assert row["ratio"] > 0.5
    append_kernels_trajectory(scale.name, sections)
    assert KERNELS_TRAJECTORY.exists()


def test_ext_kernel_service_scaling(benchmark, scale, show):
    n_words = max(400, scale.vector_size // 10)
    n_queries = max(100, scale.n_queries)
    rows = benchmark.pedantic(
        run_service_scaling,
        args=(n_words, n_queries),
        rounds=1,
        iterations=1,
    )
    show(
        format_table(
            rows,
            title=(
                "Extension - edit-distance service throughput vs workers "
                f"({n_queries} range queries, {n_words}-word M-tree)"
            ),
        )
    )
    for row in rows:
        assert row["ok"] == n_queries
    # With native kernels the GIL is released during node evaluations so
    # throughput should grow with workers on multi-core machines; the
    # portable bar (single-core CI runners included) is no collapse.
    base_qps = rows[0]["throughput qps"]
    for row in rows[1:]:
        assert row["throughput qps"] > 0.25 * base_qps
    append_kernels_trajectory(scale.name, {"service_scaling": rows})
