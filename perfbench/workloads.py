"""The three serving workloads: set-up, closed-loop load, answer checks.

Each workload builds its serving stack from inputs generated from the
seed, drives it for ``seconds`` from at most ``nproc`` client threads in
one process, then checks every answer against a linear scan outside the
timed region.  With ``trace`` set, the same load runs twice: untraced,
then on probed instances (see :mod:`tracing`); the per-layer metrics
come from the second phase and the gap between the two is the tracing
overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import os
import resource
import statistics
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import build_cluster
from repro.datasets import clustered_dataset, keyword_dataset
from repro.exceptions import MetricostError
from repro.experiments.common import paper_range_radius
from repro.ingest import IngestService
from repro.metrics import L2
from repro.mtree import bulk_load, string_layout, vector_layout
from repro.service import MTreeBackend, QueryRequest, QueryService
from repro.workloads import LinearScanBaseline

import tracing

__all__ = ["Sizes", "FULL", "TINY", "WorkloadResult", "WORKLOADS"]

DIM = 8
NODE_BYTES = 4096
#: The indexed corpus is the same for every ``--seed``: seeds vary the
#: traffic (queries, and the inserted points on ingest-read), so run to
#: run spread reflects the system rather than a different database.
CORPUS_SEED = 0
#: Batches appended after the final checkpoint, outside the timed
#: region, so every cold ``recover()`` replays the same amount of WAL.
TAIL_BATCHES = 8
#: Cold recoveries of the final directory; ``recover_s`` is their median.
RECOVERIES = 3
#: Distances from scalar and batched kernels may differ in the last ulp.
RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    routed_objects: int = 20_000
    shards: int = 4
    text_objects: int = 10_000
    ingest_objects: int = 20_000
    ingest_batch: int = 64
    checkpoint_every: int = 64
    #: Untimed builds before the timed ones (routed-mixed, ingest-read).
    setup_warmups: int = 1
    setup_repeats: int = 4
    #: One text-index build takes 6-12 s on the reference host, so it
    #: gets no untimed build and fewer timed ones.
    text_setup_repeats: int = 2


FULL = Sizes()
#: For the benchmark's own tests only.
TINY = Sizes(
    routed_objects=600, text_objects=300, ingest_objects=400,
    ingest_batch=16, checkpoint_every=4, setup_warmups=0, setup_repeats=1,
    text_setup_repeats=1,
)


@dataclass
class WorkloadResult:
    """Everything one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: Gated end-to-end metrics (every workload reports all of them).
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: End-to-end metrics of this workload only: printed, not gated.
    extra: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    sizes: Dict[str, Any] = field(default_factory=dict)
    recorder: Optional[tracing.Recorder] = None
    #: The traced phase's spans, which the per-layer metrics describe.
    spans: List[tracing.Span] = field(default_factory=list)
    #: End-to-end queries the traced phase completed.
    traced_queries: int = 0

    @property
    def correct(self) -> bool:
        return not self.mismatches


# -- shared pieces -----------------------------------------------------------

def cores() -> int:
    """What ``nproc`` prints: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def clients() -> int:
    """Client threads: two, or fewer on a one-core host."""
    return max(1, min(2, cores()))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms_percentile(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def timed_setups(result: WorkloadResult, build: Callable[[], Any],
                 repeats: int, warmups: int = 0,
                 discard: Callable[[Any], None] = lambda _s: None) -> Any:
    """Build ``warmups`` untimed times, then ``repeats`` timed times, and
    keep the last; ``setup_s`` is the median timed build.  Each build
    starts from a collected heap and runs with the cyclic collector off,
    so when a collection happens to fall does not decide its time."""
    times = []
    stack = None
    for i in range(warmups + repeats):
        if stack is not None:
            discard(stack)
            stack = None
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            stack = build()
            elapsed = perf_counter() - start
        finally:
            gc.enable()
        if i >= warmups:
            times.append(elapsed)
    result.end_to_end["setup_s"] = statistics.median(times)
    result.report.append(
        f"set-up ({warmups} untimed first): "
        + ", ".join(f"{t:.3f}" for t in times) + " s"
    )
    return stack


class RequestStream:
    """Request ``i`` is a pure function of the seed and ``i``, so the
    untraced and traced phases send the same requests in the same order."""

    BLOCK = 256

    def __init__(self, make_block: Callable[[np.random.Generator, int, int], List[QueryRequest]], seed: int):
        self._make_block = make_block
        self._rng = np.random.default_rng([seed, 7])
        self._requests: List[QueryRequest] = []

    def take(self, start: int, count: int) -> List[QueryRequest]:
        while len(self._requests) < start + count:
            self._requests.extend(
                self._make_block(self._rng, len(self._requests), self.BLOCK)
            )
        return self._requests[start:start + count]


def closed_loop(run_batch: Callable[[List[QueryRequest]], Any],
                stream: RequestStream, seconds: float, workers: int
                ) -> Tuple[List[Any], float]:
    """Send batches through the program's own worker pool until
    ``seconds`` have passed.  Each batch is sized, from the rate
    measured so far, to fill half the time left: the pool drains (and
    its workers idle) only a few times, and a rate measured while warm
    caches flattered it cannot carry the run far past ``seconds``."""
    outcomes: List[Any] = []
    start = perf_counter()
    size = 4 * workers
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            break
        if outcomes:
            rate = len(outcomes) / elapsed
            size = max(2 * workers, math.ceil((seconds - elapsed) * rate / 2))
        outcomes.extend(run_batch(stream.take(len(outcomes), size)).outcomes)
    return outcomes, perf_counter() - start


def linear_scan(baseline: LinearScanBaseline, request: QueryRequest) -> List[Tuple[int, Any, float]]:
    """The oracle's answer to one request."""
    if request.kind == "range":
        return baseline.range_query(request.query, request.radius)[0]
    return baseline.knn_query(request.query, request.k)[0]


def check_answer(metric: Any, request: QueryRequest,
                 items: Sequence[Tuple[int, Any, float]],
                 truth: Sequence[Tuple[int, Any, float]],
                 objects: Sequence[Any]) -> Optional[str]:
    """Compare one answer with the linear scan: the oid set for range
    queries (objects within ``RTOL`` of the radius may go either way),
    the sorted distances for k-NN (which tolerates ties)."""
    rid = request.request_id
    if len({oid for oid, _obj, _d in items}) != len(items):
        return f"request {rid}: answer repeats an object"
    if request.kind == "range":
        got = {oid for oid, _obj, _d in items}
        want = {oid for oid, _obj, _d in truth}
        for oid in got ^ want:
            d = metric.distance(request.query, objects[oid])
            if abs(d - request.radius) > RTOL * max(1.0, request.radius):
                return (
                    f"request {rid}: range answer {'adds' if oid in got else 'misses'}"
                    f" oid {oid} at distance {d} (radius {request.radius})"
                )
        return None
    got = sorted(d for _oid, _obj, d in items)
    want = [d for _oid, _obj, d in truth]
    if len(got) != len(want) or not np.allclose(got, want, rtol=RTOL, atol=0.0):
        return f"request {rid}: k-NN distances {got} != linear scan {want}"
    return None


def check_outcomes(baseline: LinearScanBaseline, metric: Any,
                   outcomes: Sequence[Any], workers: int) -> List[str]:
    """Check every accepted answer against ``LinearScanBaseline``.  The
    scans run on ``workers`` threads, once per distinct request (the two
    phases of a traced run send the same requests)."""
    accepted = [o for o in outcomes if o.status == "ok"]
    requests = {o.request.request_id: o.request for o in accepted}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        truths = dict(zip(
            requests,
            pool.map(lambda r: linear_scan(baseline, r), requests.values()),
        ))
    mismatches = []
    for outcome in accepted:
        rid = outcome.request.request_id
        if outcome.completeness < 1.0:
            mismatches.append(f"request {rid}: incomplete answer")
            continue
        problem = check_answer(metric, outcome.request, outcome.items or [],
                               truths[rid], baseline.objects)
        if problem is not None:
            mismatches.append(problem)
    return mismatches


def query_metrics(outcomes: Sequence[Any], wall_s: float) -> Dict[str, float]:
    ok = [o.latency_s for o in outcomes if o.status == "ok"]
    return {
        "query_qps": len(ok) / wall_s,
        "query_p50_ms": ms_percentile(ok, 50),
        "query_p99_ms": ms_percentile(ok, 99),
    }


def status_line(outcomes: Sequence[Any]) -> str:
    counts = Counter(o.status for o in outcomes)
    return ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))


def work_per_request(outcomes: Sequence[Any]) -> Dict[int, Tuple[int, int]]:
    return {
        o.request.request_id: (int(o.dists), int(getattr(o, "nodes", 0)))
        for o in outcomes if o.status == "ok"
    }


def compare_work(untraced: Sequence[Any], traced: Sequence[Any]) -> Tuple[int, List[int]]:
    """Requests both phases answered, and those whose distance or node
    counts differ between the untraced and the traced phase."""
    a, b = work_per_request(untraced), work_per_request(traced)
    common = sorted(set(a) & set(b))
    return len(common), [rid for rid in common if a[rid] != b[rid]]


def stream_warmup(stream: RequestStream, workers: int) -> List[QueryRequest]:
    """A few requests to fill caches; negative ids keep them apart."""
    return [
        dataclasses.replace(r, request_id=-1 - i)
        for i, r in enumerate(stream.take(0, 2 * workers))
    ]


def query_load(result: WorkloadResult, stack: Any, run_batch: Callable,
               stream: RequestStream, seconds: float, workers: int,
               trace: bool, instrument: Callable, metric: Any,
               ) -> Tuple[List[Any], List[Any]]:
    """Warm up, run the untraced phase and, when tracing, the traced
    phase on the same request stream; record the metrics of both.
    Returns the outcomes of each phase (the traced list empty when not
    tracing)."""
    run_batch(stream_warmup(stream, workers))
    outcomes, wall = closed_loop(run_batch, stream, seconds, workers)
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    result.end_to_end.update(query_metrics(outcomes, wall))
    ok = [o for o in outcomes if o.status == "ok"]
    result.end_to_end["success_rate"] = len(ok) / len(outcomes)
    result.report.append(
        f"untraced: {len(outcomes)} queries in {wall:.2f} s ({status_line(outcomes)})"
    )
    result.extra["dists_per_query"] = sum(o.dists for o in ok) / max(1, len(ok))
    if ok and hasattr(ok[0], "nodes"):  # router outcomes carry no node count
        result.extra["nodes_per_query"] = sum(o.nodes for o in ok) / len(ok)
    traced: List[Any] = []
    if trace:
        recorder = tracing.Recorder()
        instrument(stack, tracing.ProbeMetric(metric, recorder), recorder)
        traced, traced_wall = closed_loop(run_batch, stream, seconds, workers)
        result.report.append(
            f"traced: {len(traced)} queries in {traced_wall:.2f} s ({status_line(traced)})"
        )
        result.recorder = recorder
        result.spans = list(recorder.spans)
        result.traced_queries = len(traced)
        result.per_layer.update(tracing.layer_metrics(result.spans, len(traced)))
        result.per_layer["trace.overhead_pct"] = 100.0 * (
            result.end_to_end["query_qps"]
            / query_metrics(traced, traced_wall)["query_qps"] - 1.0
        )
    everything = outcomes + traced
    result.attempted = len(everything)
    result.failed = sum(1 for o in everything if o.status != "ok")
    return outcomes, traced


# -- routed-mixed ------------------------------------------------------------

def routed_mixed(seed: int, seconds: float, trace: bool, sizes: Sizes = FULL
                 ) -> WorkloadResult:
    """20,000 clustered 8-D points under L2 on 4 vp-tree shards behind
    the router; half range queries, half k-NN, via ``Router.run``."""
    workers = clients()
    result = WorkloadResult(sizes={
        "objects": sizes.routed_objects, "dim": DIM, "shards": sizes.shards,
        "clients": workers,
    })
    metric = L2()
    dataset = clustered_dataset(
        sizes.routed_objects, DIM, metric=metric, seed=CORPUS_SEED
    )
    objects = list(dataset.points)
    radius = paper_range_radius(DIM)

    def build() -> Any:
        return build_cluster(
            objects, metric, sizes.shards, dataset.d_plus, seed=CORPUS_SEED
        )

    router = timed_setups(
        result, build, sizes.setup_repeats, sizes.setup_warmups
    )

    def make_block(rng: np.random.Generator, first: int, count: int) -> List[QueryRequest]:
        queries = dataset.space.sample(rng, count)
        ks = rng.integers(1, 11, size=count)
        return [
            QueryRequest("range", q, radius=radius, request_id=first + i)
            if (first + i) % 2 == 0 else
            QueryRequest("knn", q, k=int(ks[i]), request_id=first + i)
            for i, q in enumerate(queries)
        ]

    stream = RequestStream(make_block, seed)
    outcomes, traced = query_load(
        result, router, lambda batch: router.run(batch, workers=workers),
        stream, seconds, workers, trace, tracing.instrument_router, metric,
    )
    baseline = LinearScanBaseline(objects, metric, DIM * 4, NODE_BYTES)
    result.mismatches += check_outcomes(baseline, metric, outcomes + traced, workers)
    if trace:
        common, differ = compare_work(outcomes, traced)
        result.report.append(
            f"probe check: {common} requests in both phases, "
            f"{len(differ)} with different distance counts"
        )
    return result


# -- text-index --------------------------------------------------------------

def text_index(seed: int, seconds: float, trace: bool, sizes: Sizes = FULL
               ) -> WorkloadResult:
    """10,000 keywords under edit distance in a bulk-loaded M-tree behind
    ``QueryService(MTreeBackend)``; range (radius 1-2) and k-NN."""
    workers = clients()
    result = WorkloadResult(sizes={
        "objects": sizes.text_objects, "node_bytes": NODE_BYTES,
        "clients": workers,
    })
    dataset = keyword_dataset(sizes.text_objects, seed=CORPUS_SEED)
    metric = dataset.metric
    words = dataset.objects()
    layout = string_layout(dataset.max_word_length(), node_size_bytes=NODE_BYTES)

    def build() -> Any:
        return QueryService(MTreeBackend(
            bulk_load(words, metric, layout, seed=CORPUS_SEED)
        ))

    service = timed_setups(result, build, sizes.text_setup_repeats)

    def make_block(rng: np.random.Generator, first: int, count: int) -> List[QueryRequest]:
        queries = dataset.sample_queries(count, rng)
        radii = rng.integers(1, 3, size=count)
        ks = rng.integers(1, 11, size=count)
        return [
            QueryRequest("range", q, radius=float(radii[i]), request_id=first + i)
            if (first + i) % 2 == 0 else
            QueryRequest("knn", q, k=int(ks[i]), request_id=first + i)
            for i, q in enumerate(queries)
        ]

    stream = RequestStream(make_block, seed)
    outcomes, traced = query_load(
        result, service, lambda batch: service.run(batch, workers=workers),
        stream, seconds, workers, trace, tracing.instrument_service, metric,
    )
    baseline = LinearScanBaseline(words, metric, layout.object_bytes, NODE_BYTES)
    result.mismatches += check_outcomes(baseline, metric, outcomes + traced, workers)
    if trace:
        # The probes must not change the work: every request answered
        # in both phases visits the same nodes and computes the same
        # distances.
        common, differ = compare_work(outcomes, traced)
        result.report.append(
            f"probe check: {common} requests in both phases, identical "
            f"distance and node counts: {'yes' if not differ else 'NO'}"
        )
        if differ:
            result.mismatches.append(
                f"tracing changed the work of requests {differ[:10]}"
            )
    return result


# -- ingest-read -------------------------------------------------------------

class _PointStream:
    """Fresh clustered points for appends, in fixed-size batches."""

    def __init__(self, space: Any, seed: int, batch: int):
        self._space = space
        self._rng = np.random.default_rng([seed, 11])
        self._batch = batch

    def next_batch(self) -> np.ndarray:
        return np.asarray(self._space.sample(self._rng, self._batch), dtype=np.float64)


def _dir_bytes(directory: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in directory.glob(pattern) if p.is_file())


@dataclass
class _IngestPhase:
    wall_s: float = 0.0
    batches: int = 0
    objects: int = 0
    append_s: List[float] = field(default_factory=list)
    visible_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    reads: List[Tuple[int, Any, int, List[float]]] = field(default_factory=list)
    failed: int = 0
    wal_bytes: int = 0
    snapshot_bytes_per_obj: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _ingest_phase(service: IngestService, points: List[np.ndarray],
                  appends: _PointStream, queries: RequestStream,
                  seconds: float, sizes: Sizes, recorder: Optional[tracing.Recorder]
                  ) -> _IngestPhase:
    """One writer (append, apply, checkpoint every few batches) and one
    reader (pin ``view()``, k-NN on it) for ``seconds``.  ``points`` is
    extended in ack order, so row ``i`` is the object with oid ``i``."""
    phase = _IngestPhase()
    stop = threading.Event()
    wal_dir = service.wal_directory
    snapshot_dir = service.store.directory
    wal_start = _dir_bytes(wal_dir)
    pruned = 0

    def writer() -> None:
        nonlocal pruned
        while not stop.is_set():
            batch = appends.next_batch()
            start = perf_counter()
            try:
                ack = service.append(batch)
            except MetricostError as exc:
                phase.failed += 1
                phase.errors.append(f"append: {exc}")
                continue
            acked = perf_counter()
            if ack.first_seq != len(points) + 1 or ack.appended != len(batch):
                phase.errors.append(
                    f"ack {ack.first_seq}..{ack.last_seq} does not follow "
                    f"{len(points)} acknowledged objects"
                )
            points.extend(batch)
            phase.batches += 1
            phase.append_s.append(acked - start)
            if phase.batches % sizes.checkpoint_every == 0:
                before = _dir_bytes(wal_dir)
                outcome = service.checkpoint()
                pruned += before - _dir_bytes(wal_dir)
                phase.snapshot_bytes_per_obj.append(
                    _dir_bytes(snapshot_dir, f"*.g{outcome.generation}.json")
                    / max(1, outcome.seq)
                )
            service.apply()
            phase.visible_s.append(perf_counter() - start)
            phase.objects += len(batch)

    def reader() -> None:
        index = 0
        while not stop.is_set():
            request = queries.take(index, 1)[0]
            index += 1
            span = (recorder.open("reader.query", request.request_id)
                    if recorder else None)
            start = perf_counter()
            view = service.view()
            answer = view.tree.knn_query(request.query, request.k)
            elapsed = perf_counter() - start
            if span is not None:
                recorder.close(span)
            phase.read_s.append(elapsed)
            phase.reads.append((view.seq, request.query, request.k, answer.distances()))

    failures: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                target()
            except BaseException as exc:  # re-raised on the main thread
                failures.append(exc)
                stop.set()
        return run

    threads = [threading.Thread(target=guarded(writer), name="ingest-writer"),
               threading.Thread(target=guarded(reader), name="ingest-reader")]
    start = perf_counter()
    for thread in threads:
        thread.start()
    stop.wait(seconds)
    stop.set()
    for thread in threads:
        thread.join()
    phase.wall_s = perf_counter() - start
    if failures:
        raise failures[0]
    phase.wal_bytes = _dir_bytes(wal_dir) - wal_start + pruned
    return phase


def _check_contents(tree: Any, points: Sequence[np.ndarray], where: str) -> List[str]:
    """Every acknowledged object present exactly once, and nothing else."""
    seen: Counter = Counter()
    wrong = []
    for oid, obj in tree.iter_objects():
        seen[oid] += 1
        if not (0 <= oid < len(points)) or not np.array_equal(
            np.asarray(obj, dtype=np.float64), points[oid]
        ):
            wrong.append(oid)
    missing = len(points) - sum(1 for oid in range(len(points)) if seen[oid])
    repeated = sum(1 for n in seen.values() if n > 1)
    if missing or repeated or wrong:
        return [
            f"{where}: {missing} acknowledged objects missing, {repeated} "
            f"present more than once, {len(wrong)} unexpected or altered"
        ]
    return []


def _check_reads(phase: _IngestPhase, points: Sequence[np.ndarray], metric: Any) -> List[str]:
    """Each k-NN answer against a linear scan of the view it was pinned
    to: the objects with oid < the view's WAL high-water mark."""
    matrix = np.vstack(points)
    mismatches = []
    for seq, query, k, got in phase.reads:
        want = np.sort(np.asarray(metric.one_to_many(query, matrix[:seq])))[:k]
        if len(got) != len(want) or not np.allclose(got, want, rtol=RTOL, atol=0.0):
            mismatches.append(f"read at seq {seq}: k-NN {got} != linear scan {list(want)}")
    return mismatches


def ingest_read(seed: int, seconds: float, trace: bool, sizes: Sizes = FULL
                ) -> WorkloadResult:
    """Durable ingest with concurrent epoch-pinned reads, then a cold
    ``recover()``."""
    result = WorkloadResult(sizes={
        "preload": sizes.ingest_objects, "dim": DIM, "batch": sizes.ingest_batch,
        "checkpoint_every": sizes.checkpoint_every, "fsync": "always",
        "writers": 1, "readers": 1,
    })
    metric = L2()
    layout = vector_layout(DIM, node_size_bytes=NODE_BYTES)
    dataset = clustered_dataset(
        sizes.ingest_objects, DIM, metric=metric, seed=CORPUS_SEED
    )
    preload = dataset.points

    def make_block(rng: np.random.Generator, first: int, count: int) -> List[QueryRequest]:
        queries = dataset.space.sample(rng, count)
        ks = rng.integers(1, 11, size=count)
        return [QueryRequest("knn", q, k=int(ks[i]), request_id=first + i)
                for i, q in enumerate(queries)]

    workdir = output_dir() / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        counter = itertools.count()

        def build() -> IngestService:
            service = IngestService(
                Path(tmp) / f"svc{next(counter)}", metric, layout, fsync="always"
            )
            service.recover()
            service.append(preload)
            service.apply()
            service.checkpoint()
            return service

        service = timed_setups(
            result, build, sizes.setup_repeats, sizes.setup_warmups,
            discard=lambda s: s.close(),
        )
        phases = []
        for traced in ([False, True] if trace else [False]):
            if traced:
                service.close()
                service = build()
            points: List[np.ndarray] = list(preload)
            recorder = tracing.Recorder() if traced else None
            probe = tracing.ProbeMetric(metric, recorder) if recorder else metric
            if recorder is not None:
                tracing.instrument_ingest(service, probe, recorder)
            appends = _PointStream(dataset.space, seed, sizes.ingest_batch)
            phase = _ingest_phase(
                service, points, appends, RequestStream(make_block, seed),
                seconds, sizes, recorder,
            )
            if not traced:
                result.end_to_end["peak_rss_mb"] = peak_rss_mb()
            result.mismatches += phase.errors
            result.mismatches += _check_contents(service.view().tree, points, "final view")
            result.mismatches += _check_reads(phase, points, metric)
            phases.append((phase, points, recorder, appends))
        # Cold restarts of the last phase's directory.  A final
        # checkpoint and TAIL_BATCHES more batches first, so every
        # recovery loads the snapshot and replays the same WAL suffix.
        phase, points, recorder, appends = phases[-1]
        spans = list(recorder.spans) if recorder is not None else []
        service.checkpoint()
        for _ in range(TAIL_BATCHES):
            batch = appends.next_batch()
            ack = service.append(batch)
            if ack.first_seq != len(points) + 1:
                result.mismatches.append(f"tail ack {ack.first_seq} out of order")
            points.extend(batch)
            service.apply()
        directory = service.directory
        service.close()
        recover_s = []
        for _ in range(RECOVERIES):
            cold = IngestService(directory, metric, layout, fsync="always")
            start = perf_counter()
            recovery = cold.recover()
            recover_s.append(perf_counter() - start)
            if recovery.lost_ranges:
                result.mismatches.append(f"recover() lost ranges {recovery.lost_ranges}")
            view = cold.view()
            cold.close()
        result.mismatches += _check_contents(view.tree, points, "after recover()")
        if recorder is not None:
            # One more recovery, probed, for the per-layer metrics; the
            # timed ones above stay unprobed like every end-to-end figure.
            cold = IngestService(directory, probe, layout, fsync="always")
            tracing.wrap_method(cold, "recover", "ingest.recover", recorder)
            recovery = cold.recover()
            cold.close()

    untraced = phases[0][0]
    result.attempted = sum(len(p[0].read_s) + p[0].batches + p[0].failed for p in phases)
    result.failed = sum(p[0].failed for p in phases)
    result.end_to_end.update({
        "query_qps": len(untraced.read_s) / untraced.wall_s,
        "query_p50_ms": ms_percentile(untraced.read_s, 50),
        "query_p99_ms": ms_percentile(untraced.read_s, 99),
        "success_rate": (len(untraced.read_s) + untraced.batches)
        / (len(untraced.read_s) + untraced.batches + untraced.failed),
    })
    result.extra.update({
        "insert_obj_per_s": untraced.objects / untraced.wall_s,
        "append_p50_ms": ms_percentile(untraced.append_s, 50),
        "append_p95_ms": ms_percentile(untraced.append_s, 95),
        "visible_p50_ms": ms_percentile(untraced.visible_s, 50),
        "visible_p95_ms": ms_percentile(untraced.visible_s, 95),
    })
    result.report.append(
        f"untraced: {untraced.batches} batches ({untraced.objects} objects), "
        f"{len(untraced.read_s)} reads in {untraced.wall_s:.2f} s"
    )
    if trace:
        result.recorder = recorder
        result.spans = spans
        result.traced_queries = len(phase.read_s)
        result.report.append(
            f"traced: {phase.batches} batches ({phase.objects} objects), "
            f"{len(phase.read_s)} reads in {phase.wall_s:.2f} s"
        )
        result.per_layer.update(tracing.layer_metrics(spans, len(phase.read_s)))
        result.per_layer.update({
            "trace.overhead_pct": 100.0 * (
                (len(untraced.read_s) / untraced.wall_s)
                / (len(phase.read_s) / phase.wall_s) - 1.0
            ),
            "ingest.wal_bytes_per_obj": phase.wal_bytes / max(1, phase.objects),
            "ingest.snapshot_bytes_per_obj": statistics.fmean(phase.snapshot_bytes_per_obj)
            if phase.snapshot_bytes_per_obj else 0.0,
            "ingest.replayed_records": float(recovery.replayed),
        })
    result.extra["recover_s"] = statistics.median(recover_s)
    return result


def output_dir() -> Path:
    """Where runs leave their output: ``.perfbench_out`` in the checkout."""
    return Path(__file__).resolve().parent.parent / ".perfbench_out"


WORKLOADS: Dict[str, Callable[..., WorkloadResult]] = {
    "routed-mixed": routed_mixed,
    "text-index": text_index,
    "ingest-read": ingest_read,
}
