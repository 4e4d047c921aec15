"""Leaf-batched range search against a per-node reference.

``MTree.range_query`` and ``range_count`` defer the entries of visited
leaves and evaluate them in batches of ``LEAF_BATCH``.  The reference
below is the per-node traversal they replace, written out here: every
accessed node evaluates its entries at once, leaves included.  The
batched search must match it in everything observable — result order,
page-reference string, node accesses, distance computations — and must
never call a kernel once its deadline has expired or its context has
been cancelled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import Context, Deadline
from repro.datasets import keyword_dataset
from repro.exceptions import DeadlineExceededError, OperationCancelledError
from repro.metrics import L2, CountingMetric, EditDistance
from repro.mtree import NodeLayout, bulk_load, string_layout
from repro.mtree.entries import RoutingEntry
from repro.mtree.tree import LEAF_BATCH
from repro.reliability import QuarantineSet


def reference_range(tree, query, radius, use_parent_pruning=False, quarantine=None):
    """Per-node range search: ``(items, access_log, nodes, dists)``."""
    metric = tree.metric
    items, log = [], []
    nodes = dists = 0
    stack = [(tree.root, None)]
    while stack:
        node, dist_to_routing = stack.pop()
        nodes += 1
        log.append(id(node))
        entries = node.entries
        if quarantine is not None and not node.is_leaf:
            entries = [e for e in entries if not quarantine.contains(e.child)]
        if use_parent_pruning and dist_to_routing is not None:
            entries = [
                e
                for e in entries
                if abs(dist_to_routing - e.dist_to_parent)
                <= radius + (e.radius if isinstance(e, RoutingEntry) else 0.0)
            ]
        if not entries:
            continue
        found = metric.one_to_many(query, [e.obj for e in entries])
        dists += len(entries)
        for entry, dist in zip(entries, found):
            if node.is_leaf:
                if dist <= radius:
                    items.append((entry.oid, entry.obj, float(dist)))
            elif dist <= radius + entry.radius:
                stack.append((entry.child, float(dist)))
    return items, log, nodes, dists


def reference_count(tree, query, radius):
    """Per-node aggregate-pushdown count: ``(count, nodes, dists)``."""
    metric = tree.metric
    counts = tree._subtree_counts()
    total = nodes = dists = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes += 1
        found = metric.one_to_many(query, [e.obj for e in node.entries])
        dists += len(node.entries)
        if node.is_leaf:
            total += int(np.count_nonzero(found <= radius))
            continue
        for entry, dist in zip(node.entries, found):
            if dist + entry.radius <= radius:
                total += counts[id(entry.child)]
            elif dist <= radius + entry.radius:
                stack.append(entry.child)
    return total, nodes, dists


class BatchRecorder(CountingMetric):
    """Counts distances and records the size of every bounded call."""

    def __init__(self, inner):
        super().__init__(inner)
        self.bounded_sizes = []

    def one_to_many_bounded(self, x, ys, bound):
        self.bounded_sizes.append(len(ys))
        return super().one_to_many_bounded(x, ys, bound)


@pytest.fixture(scope="module")
def vector_tree():
    points = np.random.default_rng(3).random((3000, 3))
    layout = NodeLayout(node_size_bytes=512, object_bytes=24)
    tree = bulk_load(points, BatchRecorder(L2()), layout, seed=1)
    return tree, [np.full(3, 0.5), points[7], np.array([0.1, 0.9, 0.3])]


@pytest.fixture(scope="module")
def string_tree():
    dataset = keyword_dataset(2600, seed=0)
    words = dataset.objects()
    layout = string_layout(dataset.max_word_length(), node_size_bytes=1024)
    tree = bulk_load(words, BatchRecorder(EditDistance()), layout, seed=1)
    queries = dataset.sample_queries(3, np.random.default_rng(5))
    return tree, list(queries) + [words[11]]


CASES = [
    ("vector_tree", [0.05, 0.3, 2.0]),
    ("string_tree", [0, 1, 2.5, 40]),
]


def quarantined_subtree(tree):
    """A quarantine holding one child of the root."""
    quarantine = QuarantineSet()
    quarantine.add(tree.root.entries[0].child)
    return quarantine


@pytest.mark.parametrize("fixture,radii", CASES, ids=["l2", "edit"])
@pytest.mark.parametrize("use_parent_pruning", [False, True])
@pytest.mark.parametrize("quarantine", [False, True])
def test_batched_range_matches_per_node_reference(
    request, fixture, radii, use_parent_pruning, quarantine
):
    tree, queries = request.getfixturevalue(fixture)
    qset = quarantined_subtree(tree) if quarantine else None
    for query in queries:
        for radius in radii:
            log = []
            result = tree.range_query(
                query,
                radius,
                use_parent_pruning=use_parent_pruning,
                access_log=log,
                quarantine=qset,
            )
            items, ref_log, nodes, dists = reference_range(
                tree, query, radius, use_parent_pruning, qset
            )
            assert [(oid, d) for oid, _o, d in result.items] == [
                (oid, d) for oid, _o, d in items
            ]
            assert log == ref_log
            assert result.stats.nodes_accessed == nodes
            assert result.stats.dists_computed == dists
            if quarantine:
                assert result.skipped_subtrees == 1


@pytest.mark.parametrize("fixture,radii", CASES, ids=["l2", "edit"])
def test_batched_range_count_matches_per_node_reference(request, fixture, radii):
    tree, queries = request.getfixturevalue(fixture)
    for query in queries:
        for radius in radii:
            count, stats = tree.range_count(query, radius)
            ref_count, nodes, dists = reference_count(tree, query, radius)
            assert count == ref_count == len(tree.range_query(query, radius))
            assert stats.nodes_accessed == nodes
            assert stats.dists_computed == dists


@pytest.mark.parametrize("fixture,radius", [("vector_tree", 2.0), ("string_tree", 40)])
def test_large_answers_flush_mid_query(request, fixture, radius):
    """More than LEAF_BATCH leaf entries: several kernel calls, each
    holding at least LEAF_BATCH entries except the last."""
    tree, queries = request.getfixturevalue(fixture)
    metric = tree.metric
    metric.bounded_sizes.clear()
    result = tree.range_query(queries[0], radius)
    sizes = metric.bounded_sizes
    assert len(result) == len(tree) > LEAF_BATCH
    assert len(sizes) >= 2
    assert all(size >= LEAF_BATCH for size in sizes[:-1])
    assert sum(sizes) == len(tree)


# ------------------------------------------------------ deadline / cancel


class WorkClock(CountingMetric):
    """A metric whose distance count doubles as a fake monotonic clock —
    time passes only while distances are computed — and which records the
    time at which each batched call starts."""

    def __init__(self, inner):
        super().__init__(inner)
        self.starts = []

    def now(self):
        return float(self.calls)

    def reset(self):
        super().reset()
        self.starts = []

    def one_to_many(self, x, ys):
        self.starts.append(self.calls)
        return super().one_to_many(x, ys)

    def one_to_many_bounded(self, x, ys, bound):
        self.starts.append(self.calls)
        return super().one_to_many_bounded(x, ys, bound)


@pytest.mark.parametrize("count_query", [False, True], ids=["range", "count"])
@pytest.mark.parametrize(
    "fixture,radii", [("vector_tree", [0.03, 0.3]), ("string_tree", [1, 3])]
)
def test_no_kernel_call_after_expiry(request, fixture, radii, count_query):
    """Let the deadline expire at every batched call's start and just
    after it: no kernel call may start once the clock has reached it."""
    tree, queries = request.getfixturevalue(fixture)
    clock = WorkClock(tree.metric.inner)
    search = tree.range_count if count_query else tree.range_query
    original = tree.metric
    tree.metric = clock
    try:
        for query in queries:
            for radius in radii:
                clock.reset()
                search(query, radius)
                starts = list(clock.starts)
                assert len(starts) > 1
                for expires_at in {t + dt for t in starts for dt in (0, 1)}:
                    clock.reset()
                    try:
                        search(
                            query,
                            radius,
                            deadline=Deadline(expires_at, clock=clock.now),
                        )
                    except DeadlineExceededError:
                        pass
                    assert all(start < expires_at for start in clock.starts)
    finally:
        tree.metric = original


def test_expired_deadline_computes_nothing(vector_tree):
    tree, queries = vector_tree
    metric = tree.metric
    metric.reset()
    expired = Deadline(0.0, clock=lambda: 1.0)
    with pytest.raises(DeadlineExceededError):
        tree.range_query(queries[0], 0.5, deadline=expired)
    with pytest.raises(DeadlineExceededError):
        tree.range_count(queries[0], 0.5, deadline=expired)
    assert metric.calls == 0


class CancellingMetric(CountingMetric):
    """Cancels a context during its ``cancel_on``-th batched call."""

    def __init__(self, inner, ctx, cancel_on):
        super().__init__(inner)
        self.ctx = ctx
        self.cancel_on = cancel_on
        self.batches = 0
        self.calls_at_cancel = None

    def _tick(self):
        self.batches += 1
        if self.batches == self.cancel_on:
            self.ctx.cancel()
            self.calls_at_cancel = self.calls

    def one_to_many(self, x, ys):
        out = super().one_to_many(x, ys)
        self._tick()
        return out

    def one_to_many_bounded(self, x, ys, bound):
        out = super().one_to_many_bounded(x, ys, bound)
        self._tick()
        return out


def test_cancelled_context_raises_typed_error(vector_tree):
    tree, queries = vector_tree
    metric = tree.metric
    metric.reset()
    ctx = Context()
    ctx.cancel()
    with pytest.raises(OperationCancelledError):
        tree.range_query(queries[0], 0.5, deadline=ctx)
    with pytest.raises(OperationCancelledError):
        tree.range_count(queries[0], 0.5, deadline=ctx)
    assert metric.calls == 0


@pytest.mark.parametrize("cancel_on", [1, 2, 5])
def test_cancel_mid_query_stops_kernel_calls(vector_tree, cancel_on):
    tree, queries = vector_tree
    ctx = Context()
    canceller = CancellingMetric(L2(), ctx, cancel_on)
    original = tree.metric
    tree.metric = canceller
    try:
        with pytest.raises(OperationCancelledError):
            tree.range_query(queries[0], 0.6, deadline=ctx)
    finally:
        tree.metric = original
    assert canceller.calls == canceller.calls_at_cancel
