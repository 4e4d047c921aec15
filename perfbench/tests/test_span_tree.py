"""Golden check: one routed query yields a single connected span tree,
``execute -> shard submit -> tree query -> metric calls``, even though
the shard attempts run on router threads."""

import pytest

from repro.cluster import build_cluster
from repro.datasets import clustered_dataset
from repro.metrics import L2
from repro.mtree import bulk_load, vector_layout
from repro.service import MTreeBackend, QueryRequest, QueryService

import tracing


def _paths(spans):
    """Root-to-leaf name paths of the span forest."""
    by_id = {s.sid: s for s in spans}
    leaves = {s.sid for s in spans} - {s.parent for s in spans}
    paths = []
    for sid in leaves:
        names = []
        while sid is not None:
            span = by_id[sid]
            names.append(span.name)
            sid = span.parent
        paths.append(tuple(reversed(names)))
    return paths


def _assert_one_tree(spans, root_name):
    ids = {s.sid for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert [r.name for r in roots] == [root_name]
    assert all(s.parent in ids for s in spans if s.parent is not None)
    assert all(s.request_id == roots[0].request_id for s in spans)


@pytest.mark.parametrize("hedged", [False, True], ids=["plain", "hedged"])
@pytest.mark.parametrize("kind", ["range", "knn"])
def test_routed_query_is_one_connected_span_tree(kind, hedged):
    metric = L2()
    data = clustered_dataset(400, 8, metric=metric, seed=3)
    router = build_cluster(list(data.points), metric, 2, data.d_plus, seed=3,
                           hedge_delay_s=0.01)
    if hedged:
        for shard in router.shards:
            shard.chaos.slow(0.2)  # primaries stall, hedges race them
    recorder = tracing.Recorder()
    tracing.instrument_router(router, tracing.ProbeMetric(metric, recorder), recorder)
    request = (
        QueryRequest("range", data.points[0], radius=0.3, request_id=7)
        if kind == "range" else
        QueryRequest("knn", data.points[0], k=5, request_id=7)
    )

    outcome = router.execute(request)

    assert outcome.ok
    _assert_one_tree(recorder.spans, "cluster.router.execute")
    paths = _paths(recorder.spans)
    tree_query = f"vptree.{kind}_query"
    assert any(
        p[:3] == ("cluster.router.execute", "cluster.shard.submit", tree_query)
        and p[3].startswith("metric.")
        for p in paths
    ), paths
    assert ("cluster.router.execute", "cluster.shard.submit", "service.admit") in paths
    submits = [s for s in recorder.spans if s.name == "cluster.shard.submit"]
    targets = outcome.shards_total - outcome.shards_pruned
    assert len(submits) >= targets
    if hedged:
        assert outcome.shards_hedged == targets
        assert len(submits) == 2 * targets  # hedges joined the same tree


def test_service_query_is_one_connected_span_tree():
    metric = L2()
    data = clustered_dataset(300, 8, metric=metric, seed=4)
    service = QueryService(MTreeBackend(
        bulk_load(list(data.points), metric, vector_layout(8), seed=4)
    ))
    recorder = tracing.Recorder()
    tracing.instrument_service(service, tracing.ProbeMetric(metric, recorder), recorder)

    outcome = service.submit(QueryRequest("knn", data.points[1], k=3, request_id=1))

    assert outcome.ok
    _assert_one_tree(recorder.spans, "service.submit")
    assert any(
        p[:2] == ("service.submit", "mtree.knn_query") and p[2].startswith("metric.")
        for p in _paths(recorder.spans)
    )


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = tracing.Span(1, "execute", None, 0)
    parent.start, parent.end = 0.0, 10.0
    parent.kernel_s = 1.0
    a = tracing.Span(2, "cluster.shard.submit", 1, 0)
    a.start, a.end = 2.0, 6.0
    b = tracing.Span(3, "cluster.shard.submit", 1, 0)
    b.start, b.end = 4.0, 8.0
    detail = tracing.Span(4, "metric.distance", 1, 0)
    detail.start, detail.end = 0.5, 1.5  # already counted in kernel_s
    assert tracing.self_seconds(parent, [a, b, detail]) == pytest.approx(3.0)
