"""Scrub-while-serving and quarantine-aware degraded answers.

The acceptance contract for the self-healing layer:

* scrubbing an *undamaged* tree while a multithreaded service hammers it
  changes nothing — answers are identical to the single-threaded ground
  truth;
* against a *quarantined* tree, every answer affected by the damage is
  flagged ``degraded`` with a completeness estimate — a result is never
  silently short;
* with a linear-scan fallback and a ``min_completeness`` floor, badly
  degraded requests are re-answered completely on the scan rung.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import observability
from repro.datasets import clustered_dataset
from repro.exceptions import InvalidParameterError
from repro.mtree import bulk_load, vector_layout
from repro.reliability import (
    QuarantineSet,
    Scrubber,
    StructuralFaultInjector,
)
from repro.service import (
    AdmissionController,
    MTreeBackend,
    QueryRequest,
    QueryService,
)
from repro.workloads import LinearScanBaseline

DIM = 3


@pytest.fixture(autouse=True)
def clean_observability():
    observability.uninstall()
    yield
    observability.uninstall()


def build(size=600, seed=21):
    data = clustered_dataset(size=size, dim=DIM, seed=seed)
    tree = bulk_load(data.points, data.metric, vector_layout(DIM), seed=seed)
    return data, tree


def make_requests(data, n, seed=22):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        query = rng.random(DIM)
        if i % 3 == 2:
            requests.append(
                QueryRequest("knn", query, k=5, request_id=i)
            )
        else:
            requests.append(
                QueryRequest(
                    "range",
                    query,
                    radius=0.2 * data.d_plus,
                    request_id=i,
                )
            )
    return requests


def answer_key(outcome):
    return sorted(
        (oid, round(dist, 9)) for oid, _obj, dist in outcome.items
    )


def brute_force(data, request):
    """Exact answer by scanning every object."""
    distances = np.asarray(
        data.metric.one_to_many(request.query, data.points)
    )
    if request.kind == "range":
        return sorted(
            (int(i), round(float(d), 9))
            for i, d in enumerate(distances)
            if d <= request.radius
        )
    order = np.argsort(distances, kind="stable")[: request.k]
    return sorted(
        (int(i), round(float(distances[int(i)]), 9)) for i in order
    )


def wide_service(backend):
    return QueryService(
        backend,
        admission=AdmissionController(max_concurrent=16, max_queue=10_000),
    )


# ---------------------------------------------------------------------------
# hammer: scrub an undamaged tree while serving
# ---------------------------------------------------------------------------


def test_hammer_scrub_while_serving_matches_ground_truth():
    data, tree = build(size=900)
    requests = make_requests(data, 120)
    # Single-threaded ground truth on the quiet tree.
    quiet = MTreeBackend(tree)
    truth = {
        r.request_id: answer_key(quiet.execute(r)) for r in requests
    }

    quarantine = QuarantineSet()
    scrubber = Scrubber(tree, quarantine=quarantine)
    stop = threading.Event()

    def keep_scrubbing():
        while not stop.is_set():
            scrubber.run(passes=1)

    thread = threading.Thread(target=keep_scrubbing, daemon=True)
    thread.start()
    try:
        service = wide_service(MTreeBackend(tree, quarantine=quarantine))
        report = service.run(requests, workers=8)
    finally:
        stop.set()
        thread.join()

    assert len(report.accepted) == len(requests)
    assert report.degraded == []
    for outcome in report.outcomes:
        assert outcome.status == "ok"
        assert outcome.completeness == 1.0
        assert answer_key(outcome) == truth[outcome.request.request_id]
    # The concurrent scrub of a healthy tree found nothing and
    # quarantined nothing.
    assert scrubber.report().ok
    assert len(quarantine) == 0


# ---------------------------------------------------------------------------
# quarantined tree: degraded, never silently short
# ---------------------------------------------------------------------------


def test_quarantined_tree_flags_every_affected_answer():
    data, tree = build(size=900, seed=31)
    StructuralFaultInjector(seed=31).shrink_radius(tree)
    quarantine = QuarantineSet()
    Scrubber(tree, quarantine=quarantine).run(passes=1)
    assert len(quarantine) >= 1

    requests = make_requests(data, 120, seed=32)
    service = wide_service(MTreeBackend(tree, quarantine=quarantine))
    report = service.run(requests, workers=8)
    assert len(report.accepted) == len(requests)

    n_degraded = 0
    for outcome in report.outcomes:
        truth = brute_force(data, outcome.request)
        if outcome.degraded:
            n_degraded += 1
            assert outcome.completeness < 1.0
        if answer_key(outcome) != truth:
            # A wrong/short answer is only acceptable when it says so.
            assert outcome.degraded
            assert outcome.completeness < 1.0
            if outcome.request.kind == "range":
                # Routing around damage can only lose answers, never
                # invent them.
                assert set(answer_key(outcome)) <= set(truth)
    # The damage is real: some queries must actually have been affected.
    assert n_degraded > 0
    assert report.degraded and len(report.degraded) == n_degraded


# ---------------------------------------------------------------------------
# fallback rung: completeness floor
# ---------------------------------------------------------------------------


def test_min_completeness_falls_back_to_linear_scan():
    registry = observability.install()
    data, tree = build(size=900, seed=51)
    StructuralFaultInjector(seed=51).shrink_radius(tree)
    quarantine = QuarantineSet()
    Scrubber(tree, quarantine=quarantine).run(passes=1)
    fallback = LinearScanBaseline(
        data.points,
        data.metric,
        object_bytes=tree.layout.object_bytes,
        node_size_bytes=tree.layout.node_size_bytes,
    )
    backend = MTreeBackend(
        tree,
        quarantine=quarantine,
        fallback=fallback,
        min_completeness=1.0,
    )
    requests = make_requests(data, 60, seed=52)
    report = wide_service(backend).run(requests, workers=4)
    assert len(report.accepted) == len(requests)
    for outcome in report.outcomes:
        # The scan rung restores completeness; every answer is exact.
        assert outcome.completeness == 1.0
        assert answer_key(outcome) == brute_force(data, outcome.request)
    assert report.degraded  # the fallback is still honest about itself
    assert (
        registry.counter_value(
            "service.degraded_queries", rung="linear_scan"
        )
        == len(report.degraded)
    )


def test_min_completeness_validated():
    _, tree = build(size=50)
    with pytest.raises(InvalidParameterError):
        MTreeBackend(tree, min_completeness=1.5)
