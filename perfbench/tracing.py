"""In-memory span recorder and instance-level probes for the traced run.

The program's own ``repro.observability`` registry and tracer stay
uninstalled: installing them changes the hot path.  Instead the traced
run replaces public methods on the instances the benchmark built
(``router.execute = traced(router.execute)``) and swaps each index's
metric for :class:`ProbeMetric`, which forwards every call to the real
metric and times it.  Nothing in ``src/`` is modified.

A span is ``{name, start, end, parent, request_id}``.  Within a thread
spans nest by a stack; a span opened on a thread with an empty stack
takes as parent the root span already registered for its
``request_id``, which is how a ``Shard.submit`` running on a router
attempt thread joins the ``Router.execute`` span that caused it.

Distance calls are too many to keep one span each (a routed query makes
~2,000 scalar calls), so their time, call counts and element counts are
folded into the innermost open span.  For the first
``DETAIL_REQUESTS`` requests every distance call is also kept as its own
``metric.<method>`` span, so the stored trace shows the full tree
``execute -> shard submit -> tree query -> metric calls``.
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.metrics import Metric

__all__ = [
    "Span",
    "Recorder",
    "ProbeMetric",
    "wrap_method",
    "wrap_admission",
    "instrument_vptree",
    "instrument_mtree",
    "instrument_shard",
    "instrument_router",
    "instrument_service",
    "instrument_ingest",
    "span_trees",
    "self_seconds",
    "layer_metrics",
    "layer_table",
]

#: Requests whose every distance call is also kept as its own span.
DETAIL_REQUESTS = 16


class Span:
    """One timed call at a layer boundary, plus folded distance work."""

    __slots__ = (
        "sid", "name", "start", "end", "parent", "request_id", "attrs",
        "kernel_s", "scalar_calls", "batch_calls", "batch_elems",
    )

    def __init__(
        self, sid: int, name: str, parent: Optional[int],
        request_id: Optional[int],
    ):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request_id = request_id
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, Any] = {}
        self.kernel_s = 0.0
        self.scalar_calls = 0
        self.batch_calls = 0
        self.batch_elems = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
            "kernel_s": self.kernel_s,
            "scalar_calls": self.scalar_calls,
            "batch_calls": self.batch_calls,
            "batch_elems": self.batch_elems,
            **self.attrs,
        }


class Recorder:
    """Collects spans from every thread; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._roots: Dict[int, int] = {}
        self._detail: set = set()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id: Optional[int] = None) -> Span:
        stack = self._stack()
        if stack:
            top = stack[-1]
            parent: Optional[int] = top.sid
            if request_id is None:
                request_id = top.request_id
        else:
            parent = None
            if request_id is not None:
                with self._lock:
                    parent = self._roots.get(request_id)
        span = Span(next(self._ids), name, parent, request_id)
        if parent is None and request_id is not None:
            with self._lock:
                self._roots.setdefault(request_id, span.sid)
                if len(self._detail) < DETAIL_REQUESTS:
                    self._detail.add(request_id)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def kernel_call(self, method: str, elems: int, start: float, end: float) -> None:
        """Fold one distance call into the innermost open span (every
        probed call runs inside one)."""
        stack = self._stack()
        if not stack:
            return
        top = stack[-1]
        top.kernel_s += end - start
        if method == "distance":
            top.scalar_calls += 1
        else:
            top.batch_calls += 1
            top.batch_elems += elems
        if top.request_id is not None and top.request_id in self._detail:
            span = Span(
                next(self._ids), f"metric.{method}", top.sid, top.request_id
            )
            span.start = start
            span.end = end
            span.attrs["elems"] = elems
            with self._lock:
                self.spans.append(span)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.sid)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


class ProbeMetric(Metric):
    """Forwards every distance call to ``inner`` and times it.

    The forwarded methods are exactly the ones the indexes call, so the
    traced run computes the same distances in the same kernels.
    """

    def __init__(self, inner: Metric, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name

    def __getattr__(self, attr: str) -> Any:
        # Metric-specific attributes (``p``, ``unit_cube_diameter``...).
        return getattr(self.__dict__["inner"], attr)

    def distance(self, a: Any, b: Any) -> float:
        start = perf_counter()
        value = self.inner.distance(a, b)
        self.recorder.kernel_call("distance", 1, start, perf_counter())
        return value

    def one_to_many(self, x: Any, ys: Sequence[Any]) -> Any:
        start = perf_counter()
        value = self.inner.one_to_many(x, ys)
        self.recorder.kernel_call("one_to_many", len(ys), start, perf_counter())
        return value

    def one_to_many_bounded(self, x: Any, ys: Sequence[Any], bound: float) -> Any:
        start = perf_counter()
        value = self.inner.one_to_many_bounded(x, ys, bound)
        self.recorder.kernel_call(
            "one_to_many_bounded", len(ys), start, perf_counter()
        )
        return value

    def pairwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> Any:
        start = perf_counter()
        value = self.inner.pairwise(xs, ys)
        self.recorder.kernel_call(
            "pairwise", len(xs) * len(ys), start, perf_counter()
        )
        return value

    def rowwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> Any:
        start = perf_counter()
        value = self.inner.rowwise(xs, ys)
        self.recorder.kernel_call("rowwise", len(xs), start, perf_counter())
        return value


# -- instance wrappers -------------------------------------------------------

def wrap_method(
    obj: Any,
    method: str,
    span_name: str,
    recorder: Recorder,
    request_id: Optional[Callable[..., Optional[int]]] = None,
    annotate: Optional[Callable[[Span, Any], None]] = None,
    after: Optional[Callable[[Any], None]] = None,
) -> None:
    """Replace ``obj.method`` by a version that records a span.

    ``request_id(*args, **kwargs)`` names the request the call serves,
    ``annotate(span, result)`` copies counts from the result onto the
    span, and ``after(result)`` runs outside the span (used to
    instrument the tree a ``clone()`` returns).
    """
    original = getattr(obj, method)

    def traced(*args: Any, **kwargs: Any) -> Any:
        rid = request_id(*args, **kwargs) if request_id is not None else None
        span = recorder.open(span_name, rid)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            span.attrs["status"] = "raised"
            raise
        finally:
            recorder.close(span)
        if annotate is not None:
            annotate(span, result)
        if after is not None:
            after(result)
        return result

    setattr(obj, method, traced)


class _TimedAdmission:
    """Times entering an admission slot (the wait), not holding it."""

    def __init__(self, inner: Any, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    def __enter__(self) -> Any:
        span = self.recorder.open("service.admit")
        try:
            return self.inner.__enter__()
        finally:
            self.recorder.close(span)

    def __exit__(self, *exc_info: Any) -> Any:
        return self.inner.__exit__(*exc_info)


def wrap_admission(admission: Any, recorder: Recorder) -> None:
    original = admission.admit

    def admit(*args: Any, **kwargs: Any) -> _TimedAdmission:
        return _TimedAdmission(original(*args, **kwargs), recorder)

    admission.admit = admit


def _request_id(request: Any, *_args: Any, **_kwargs: Any) -> Optional[int]:
    return request.request_id


def _annotate_query(span: Span, result: Any) -> None:
    stats = result.stats
    span.attrs["dists"] = int(stats.dists_computed)
    span.attrs["nodes"] = int(stats.nodes_accessed)
    items = getattr(result, "items", None)
    if items is None:
        items = result.neighbors
    span.attrs["results"] = len(items)


def _annotate_outcome(span: Span, outcome: Any) -> None:
    span.attrs["status"] = outcome.status


def _annotate_route(span: Span, outcome: Any) -> None:
    span.attrs["status"] = outcome.status
    span.attrs["dists"] = int(outcome.dists)
    span.attrs["shards_total"] = int(outcome.shards_total)
    span.attrs["shards_pruned"] = int(outcome.shards_pruned)
    span.attrs["shards_hedged"] = int(outcome.shards_hedged)


def instrument_vptree(tree: Any, metric: Metric, recorder: Recorder) -> None:
    tree.metric = metric
    for method in ("range_query", "knn_query"):
        wrap_method(tree, method, f"vptree.{method}", recorder,
                    annotate=_annotate_query)


def instrument_mtree(tree: Any, metric: Metric, recorder: Recorder) -> None:
    """Probe one M-tree; trees its ``clone()`` returns are probed too."""
    tree.metric = metric
    for method in ("range_query", "knn_query"):
        wrap_method(tree, method, f"mtree.{method}", recorder,
                    annotate=_annotate_query)
    wrap_method(tree, "insert", "mtree.insert", recorder)
    wrap_method(
        tree, "clone", "mtree.clone", recorder,
        after=lambda twin: instrument_mtree(twin, metric, recorder),
    )


def instrument_shard(shard: Any, metric: Metric, recorder: Recorder) -> None:
    shard.metric = metric
    instrument_vptree(shard.tree, metric, recorder)
    wrap_admission(shard.admission, recorder)
    wrap_method(shard, "submit", "cluster.shard.submit", recorder,
                request_id=_request_id, annotate=_annotate_outcome)


def instrument_router(router: Any, metric: Metric, recorder: Recorder) -> None:
    router.metric = metric
    for shard in router.shards:
        instrument_shard(shard, metric, recorder)
    wrap_method(router, "execute", "cluster.router.execute", recorder,
                request_id=_request_id, annotate=_annotate_route)


def instrument_service(service: Any, metric: Metric, recorder: Recorder) -> None:
    """Probe a ``QueryService`` over an ``MTreeBackend``."""
    instrument_mtree(service.backend.tree, metric, recorder)
    wrap_admission(service.admission, recorder)
    wrap_method(service, "submit", "service.submit", recorder,
                request_id=_request_id, annotate=_annotate_outcome)


def instrument_ingest(service: Any, metric: Metric, recorder: Recorder) -> None:
    """Probe an ``IngestService`` and the tree it currently publishes."""
    service.metric = metric
    instrument_mtree(service.view().tree, metric, recorder)
    for method in ("append", "apply", "checkpoint", "recover"):
        wrap_method(service, method, f"ingest.{method}", recorder)


# -- analysis ----------------------------------------------------------------

def span_trees(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    """Children lists keyed by parent id (``None`` holds the roots)."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_seconds(span: Span, children: Sequence[Span]) -> float:
    """Duration minus the part covered by child spans and folded kernel
    time (folded calls ran on the span's own thread, between children)."""
    covered = _covered([
        (c.start, c.end) for c in children if not c.name.startswith("metric.")
    ])
    return span.duration - covered - span.kernel_s


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Layer-table rows: label and the span names that make up the layer.
LAYER_ROWS = (
    ("Router.execute", ("cluster.router.execute",)),
    ("Shard.submit", ("cluster.shard.submit",)),
    ("QueryService.submit", ("service.submit",)),
    ("admission.admit (wait)", ("service.admit",)),
    ("VPTree query", ("vptree.range_query", "vptree.knn_query")),
    ("MTree query", ("mtree.range_query", "mtree.knn_query")),
    ("IngestService.append", ("ingest.append",)),
    ("IngestService.apply", ("ingest.apply",)),
    ("MTree.clone", ("mtree.clone",)),
    ("MTree.insert", ("mtree.insert",)),
    ("IngestService.checkpoint", ("ingest.checkpoint",)),
    ("IngestService.recover", ("ingest.recover",)),
)


def layer_metrics(spans: Sequence[Span], queries: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``*_ms`` / ``*_us_*`` values are means per call of that layer;
    ``*_per_query`` values are totals divided by the ``queries``
    end-to-end queries the traced phase completed.  A layer that is not
    on the workload's path reports 0.
    """
    spans = [s for s in spans if not s.name.startswith("metric.")]
    children = span_trees(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names: str) -> List[Span]:
        return [s for name in names for s in by_name.get(name, [])]

    def self_s(span: Span) -> float:
        return self_seconds(span, children.get(span.sid, []))

    q = max(queries, 1)
    out: Dict[str, float] = {}

    path = [s for s in spans if s.request_id is not None]
    kernel_s = sum(s.kernel_s for s in path)
    scalar = sum(s.scalar_calls for s in path)
    batch = sum(s.batch_calls for s in path)
    batch_elems = sum(s.batch_elems for s in path)
    busy_s = kernel_s + sum(self_s(s) for s in path)
    out["kernels.ms_per_query"] = kernel_s / q * 1e3
    out["kernels.time_share"] = _ratio(kernel_s, busy_s)
    out["kernels.us_per_elem"] = _ratio(kernel_s, scalar + batch_elems) * 1e6
    out["kernels.batch_calls_per_query"] = batch / q
    out["kernels.elems_per_batch_call"] = _ratio(batch_elems, batch)
    out["kernels.scalar_calls_per_query"] = scalar / q

    for tree in ("mtree", "vptree"):
        queries_ = named(f"{tree}.range_query", f"{tree}.knn_query")
        dists = sum(s.attrs.get("dists", 0) for s in queries_)
        out[f"{tree}.query_ms"] = _mean([s.duration for s in queries_]) * 1e3
        out[f"{tree}.self_ms"] = _mean([self_s(s) for s in queries_]) * 1e3
        out[f"{tree}.dists_per_query"] = dists / q
        if tree == "mtree":
            out["mtree.nodes_per_query"] = sum(
                s.attrs.get("nodes", 0) for s in queries_
            ) / q
            out["mtree.results_per_dist"] = _ratio(
                sum(s.attrs.get("results", 0) for s in queries_), dists
            )
            out["mtree.clone_ms"] = _mean(
                [s.duration for s in named("mtree.clone")]
            ) * 1e3
            out["mtree.insert_us_per_obj"] = _mean(
                [s.duration for s in named("mtree.insert")]
            ) * 1e6

    tree_query = {
        f"{t}.{m}" for t in ("mtree", "vptree")
        for m in ("range_query", "knn_query")
    }
    submits = named("service.submit", "cluster.shard.submit")
    out["service.admission_wait_ms"] = _mean(
        [s.duration for s in named("service.admit")]
    ) * 1e3
    out["service.submit_overhead_ms"] = _mean([
        s.duration - sum(
            c.duration for c in children.get(s.sid, []) if c.name in tree_query
        )
        for s in submits
    ]) * 1e3
    out["service.rejected_frac"] = _ratio(
        sum(1 for s in submits if s.attrs.get("status") == "rejected"),
        len(submits),
    )

    executes = named("cluster.router.execute")
    slowest = [
        max(
            (c.duration for c in children.get(s.sid, [])
             if c.name == "cluster.shard.submit"),
            default=0.0,
        )
        for s in executes
    ]
    shard_submits = named("cluster.shard.submit")
    total = sum(s.attrs.get("shards_total", 0) for s in executes)
    pruned = sum(s.attrs.get("shards_pruned", 0) for s in executes)
    out["cluster.router.execute_ms"] = _mean(
        [s.duration for s in executes]
    ) * 1e3
    out["cluster.router.overhead_ms"] = _mean(
        [s.duration - m for s, m in zip(executes, slowest)]
    ) * 1e3
    out["cluster.router.dists_per_query"] = _mean(
        [s.attrs.get("dists", 0) for s in executes]
    )
    out["cluster.router.pruned_frac"] = _ratio(pruned, total)
    out["cluster.router.hedged_frac"] = _ratio(
        sum(s.attrs.get("shards_hedged", 0) for s in executes), total - pruned
    )
    out["cluster.shard.submit_ms"] = _mean(
        [s.duration for s in shard_submits]
    ) * 1e3
    out["cluster.shard.submit_max_ms"] = _mean(slowest) * 1e3
    out["cluster.shard.attempts_per_query"] = _ratio(
        len(shard_submits), len(executes)
    )

    applies = named("ingest.apply")
    apply_ids = {s.sid for s in applies}
    out["ingest.append_ms"] = _mean(
        [s.duration for s in named("ingest.append")]
    ) * 1e3
    out["ingest.apply_ms"] = _mean([s.duration for s in applies]) * 1e3
    out["ingest.clone_share"] = _ratio(
        sum(s.duration for s in named("mtree.clone") if s.parent in apply_ids),
        sum(s.duration for s in applies),
    )
    out["ingest.checkpoint_ms"] = _mean(
        [s.duration for s in named("ingest.checkpoint")]
    ) * 1e3
    return out


def layer_table(spans: Sequence[Span], queries: int, backend: str) -> str:
    """ROADMAP item 1's layer table: per end-to-end query, the calls,
    wall time, self time and distances of each layer that ran."""
    spans = [s for s in spans if not s.name.startswith("metric.")]
    children = span_trees(spans)
    q = max(queries, 1)
    lines = [
        f"layer table ({queries} queries, kernel backend {backend!r})",
        "| Layer | calls/query | ms/query | self ms/query | dists/query |",
        "|---|---|---|---|---|",
    ]
    for label, names in LAYER_ROWS:
        rows = [s for s in spans if s.name in names]
        if not rows:
            continue
        dists = [s.attrs["dists"] for s in rows if "dists" in s.attrs]
        self_total = sum(
            self_seconds(s, children.get(s.sid, [])) for s in rows
        )
        lines.append(
            f"| {label} | {len(rows) / q:.2f} "
            f"| {sum(s.duration for s in rows) / q * 1e3:.3f} "
            f"| {self_total / q * 1e3:.3f} "
            f"| {sum(dists) / q:,.1f} |" if dists else
            f"| {label} | {len(rows) / q:.2f} "
            f"| {sum(s.duration for s in rows) / q * 1e3:.3f} "
            f"| {self_total / q * 1e3:.3f} | — |"
        )
    kernel_s = sum(s.kernel_s for s in spans)
    elems = sum(s.scalar_calls + s.batch_elems for s in spans)
    calls = sum(s.scalar_calls + s.batch_calls for s in spans)
    lines.append(
        f"| metric kernels ({backend}) | {calls / q:.2f} "
        f"| {kernel_s / q * 1e3:.3f} | {kernel_s / q * 1e3:.3f} "
        f"| {elems / q:,.1f} |"
    )
    return "\n".join(lines)
