"""Crash-consistent shard rebalance: plan, stage, commit, recover.

Rebalancing moves objects between shards when the observed pivot-profile
drift (or accumulated damage: folded shards serving at linear cost)
makes the current partition more expensive than a fresh one.  The
decision is the paper's cost model applied to *itself*: both the current
membership and a candidate re-partition are priced as the expected
per-query distance count over a seeded probe workload —
``n_shards`` pivot distances plus each shard's expected contribution
``n_i * (F_i(d+r) - F_i(d-r))``, with degraded (folded / quarantined)
shards charged their full linear-scan cost ``n_i`` — and the rebalance
runs only when the candidate wins by a configurable margin.

Execution is a two-phase, resumable, crash-consistent protocol:

1. **journal** — write ``REBALANCE.json`` declaring the full plan
   (epochs, per-shard target oids, encoded pivots) atomically;
2. **stage** — copy each target shard's objects into its own staging
   file (one atomic write per shard) with the copy **cursor** mirrored
   back into the journal, so a crashed copy resumes after the last
   staged shard instead of restarting;
3. **commit** — bulk-load and fsck every new shard tree, then save *all*
   shard trees plus the ``membership`` document (epoch, assignment,
   pivot profiles) as one :class:`~repro.service.GenerationStore`
   generation — the store's manifest replace is the single commit point
   for the whole cluster;
4. **cleanup** — remove the staging files and the rebalance journal;
5. **install** — hand the new shard set to
   :meth:`~repro.cluster.router.Router.install_membership`, which bumps
   the membership epoch and fences the superseded shard views.

A crash at any step leaves the store loadable at exactly one epoch:
before the commit point :func:`load_cluster` sees the old generation in
full, after it the new one — never a mix.  ``crash_after_step`` (same
contract as :meth:`GenerationStore.save`) lets tests kill the protocol
at every step; :meth:`Rebalancer.recover` rolls the debris forward or
back, and :meth:`Rebalancer.gc_report` / :meth:`Rebalancer.gc` detect
and reclaim what a mid-rebalance crash left behind (stale journals,
orphaned staging files, uncommitted generation files).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import (
    CorruptedDataError,
    InvalidParameterError,
    StaleEpochError,
)
from ..metrics import Metric
from ..observability import state as _obs
from ..persistence import (
    _atomic_write_text,
    _default_decode,
    _default_encode,
    mtree_from_dict,
    mtree_to_dict,
)
from ..reliability.integrity import dumps_artifact, loads_artifact
from ..service.recovery import GenerationStore
from .partition import ShardStats, partition_objects
from .router import ClusterMembership, Router
from .shard import Shard

__all__ = [
    "REBALANCE_FORMAT",
    "RebalancePlan",
    "RebalanceOutcome",
    "Rebalancer",
    "estimate_route_cost",
    "plan_rebalance",
    "save_cluster",
    "load_cluster",
]

REBALANCE_FORMAT = "metricost-rebalance-v2"
REBALANCE_JOURNAL_NAME = "REBALANCE.json"
STAGING_PREFIX = "staging-shard-"
MEMBERSHIP_ARTIFACT = "membership"
SHARD_ARTIFACT_PREFIX = "shard-"

PathLike = Union[str, Path]
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]

#: Default probe radius as a fraction of ``d_plus`` when the planner is
#: not given one: wide enough that annulus counts are informative, small
#: enough that a healthy partition prunes most shards.
DEFAULT_PROBE_FRACTION = 0.1


@dataclass(frozen=True)
class RebalancePlan:
    """A priced proposal to move the cluster to a new partition.

    ``oids[i]`` lists the *global* object ids assigned to target shard
    ``i``; ``pivots`` the chosen pivot objects.  ``old_cost`` /
    ``new_cost`` are the cost model's expected per-query distance counts
    for the current membership and the candidate partition over the same
    probe workload, so ``gain`` is directly the fraction of routing work
    the move is predicted to save.
    """

    epoch_from: int
    epoch_to: int
    n_shards: int
    d_plus: float
    seed: int
    node_size_bytes: int
    oids: Tuple[Tuple[int, ...], ...]
    pivots: Tuple[Any, ...]
    old_cost: float
    new_cost: float
    reason: str
    dists_computed: int = 0

    @property
    def gain(self) -> float:
        """Predicted fractional routing-cost saving (may be negative)."""
        if self.old_cost <= 0:
            return 0.0
        return 1.0 - self.new_cost / self.old_cost

    def improves(self, min_gain: float) -> bool:
        """True when the predicted saving clears the ``min_gain`` bar."""
        return self.gain >= min_gain

    @property
    def total_objects(self) -> int:
        return sum(len(group) for group in self.oids)


@dataclass
class RebalanceOutcome:
    """What one rebalance execution did.

    ``moved`` counts objects whose shard assignment actually changed;
    ``resumed_shards`` how many staging copies were found already done
    (a resumed run); ``installed`` whether the new membership was handed
    to a live router (False when committing store-only).
    """

    plan: RebalancePlan
    epoch: int
    generation: int
    moved: int
    resumed_shards: int
    total_steps: int
    installed: bool
    membership: Optional[ClusterMembership] = None


def _collect_objects(
    membership: ClusterMembership,
) -> Tuple[List[int], List[Any]]:
    """Every (global oid, object) pair in the membership, oid-ordered."""
    by_oid: Dict[int, Any] = {}
    for shard in membership.shards:
        for oid, obj in zip(shard.oids, shard.objects):
            by_oid[int(oid)] = obj
    oids = sorted(by_oid)
    return oids, [by_oid[oid] for oid in oids]


def estimate_route_cost(
    entries: Sequence[Tuple[ShardStats, bool]],
    probes: Sequence[Any],
    radius: float,
    metric: Metric,
) -> float:
    """Mean expected per-query distance count for a shard layout.

    ``entries`` pairs each shard's :class:`ShardStats` with a *degraded*
    flag.  Per probe the layout pays ``n_shards`` pivot distances; a
    degraded shard (folded to linear scan, or quarantined) then costs
    its full ``n_i``, a certified-prunable shard costs nothing, and
    every other shard costs its expected contribution
    ``n_i * (F_i(d+r) - F_i(d-r))`` — the paper's §4 cost model used to
    price the *cluster layout* rather than a tree traversal.
    """
    if not probes:
        return 0.0
    total = 0.0
    for probe in probes:
        cost = float(len(entries))
        for stats, degraded in entries:
            pivot_dist = float(metric.distance(probe, stats.pivot))
            if degraded:
                cost += stats.n_objects
            elif stats.candidate_count(pivot_dist, radius) == 0:
                continue
            else:
                cost += stats.expected_matches(pivot_dist, radius)
        total += cost
    return total / len(probes)


def plan_rebalance(
    router: Router,
    d_plus: float,
    n_shards: Optional[int] = None,
    seed: int = 0,
    probe_count: int = 16,
    probe_radius: Optional[float] = None,
    reason: str = "drift",
) -> RebalancePlan:
    """Price a fresh partition of the live dataset against the current one.

    Harvests every object from the current membership, runs
    :func:`~repro.cluster.partition.partition_objects` for a candidate
    layout, and prices both layouts with :func:`estimate_route_cost`
    over a seeded probe sample of the data itself.  Shards that are
    folded to linear scan or router-quarantined are charged their
    linear cost in the *current* layout — that asymmetry is what makes
    the ladder's "rebalance after damage" rung decidable by the cost
    model instead of by a hand-tuned flag.
    """
    membership = router.membership
    if n_shards is None:
        n_shards = len(membership.shards)
    oids, objects = _collect_objects(membership)
    partition = partition_objects(
        objects, router.metric, n_shards, d_plus, seed=seed
    )
    radius = (
        float(probe_radius)
        if probe_radius is not None
        else DEFAULT_PROBE_FRACTION * d_plus
    )
    rng = np.random.default_rng(seed + membership.epoch)
    take = min(probe_count, len(objects))
    probe_positions = rng.choice(len(objects), size=take, replace=False)
    probes = [objects[int(i)] for i in probe_positions]
    old_entries = [
        (
            shard.stats,
            shard.scan_only or router.quarantine.contains(shard.shard_id),
        )
        for shard in membership.shards
    ]
    new_entries = [(stats, False) for stats in partition.stats]
    old_cost = estimate_route_cost(
        old_entries, probes, radius, router.metric
    )
    new_cost = estimate_route_cost(
        new_entries, probes, radius, router.metric
    )
    plan_oids = tuple(
        tuple(int(oids[pos]) for pos in partition.shard_indices[shard_id])
        for shard_id in range(n_shards)
    )
    return RebalancePlan(
        epoch_from=membership.epoch,
        epoch_to=membership.epoch + 1,
        n_shards=n_shards,
        d_plus=float(d_plus),
        seed=seed,
        node_size_bytes=membership.shards[0].node_size_bytes,
        oids=plan_oids,
        pivots=tuple(partition.pivots),
        old_cost=old_cost,
        new_cost=new_cost,
        reason=reason,
        dists_computed=partition.dists_computed,
    )


def _membership_document(
    shards: Sequence[Shard], epoch: int, d_plus: float, seed: int,
    node_size_bytes: int, encode: Encoder,
) -> Dict[str, Any]:
    return {
        "format": REBALANCE_FORMAT,
        "kind": "cluster-membership",
        "epoch": int(epoch),
        "n_shards": len(shards),
        "d_plus": float(d_plus),
        "seed": int(seed),
        "node_size_bytes": int(node_size_bytes),
        "shards": [
            {
                "shard_id": shard.shard_id,
                "oids": [int(oid) for oid in shard.oids],
                "pivot": encode(shard.stats.pivot),
                "pivot_distances": [
                    float(v) for v in shard.stats.pivot_distances
                ],
            }
            for shard in shards
        ],
    }


def _cluster_artifacts(
    shards: Sequence[Shard], epoch: int, d_plus: float, seed: int,
    node_size_bytes: int, encode: Encoder,
) -> Dict[str, str]:
    """The full artifact bundle for one committed cluster generation."""
    artifacts = {
        MEMBERSHIP_ARTIFACT: dumps_artifact(
            _membership_document(
                shards, epoch, d_plus, seed, node_size_bytes, encode
            )
        )
    }
    for shard in shards:
        artifacts[f"{SHARD_ARTIFACT_PREFIX}{shard.shard_id}"] = (
            dumps_artifact(mtree_to_dict(shard.tree, encode))
        )
    return artifacts


def save_cluster(
    router: Router,
    directory: PathLike,
    d_plus: float,
    encode: Optional[Encoder] = None,
    crash_after_step: Optional[int] = None,
) -> int:
    """Commit the router's current membership as one store generation.

    One :meth:`GenerationStore.save` of every shard tree plus the
    membership document — the same commit shape a rebalance uses, so a
    freshly built cluster, a post-repair cluster, and a rebalanced
    cluster are indistinguishable on disk.  Returns the generation.
    """
    membership = router.membership
    store = GenerationStore(directory)
    artifacts = _cluster_artifacts(
        membership.shards,
        membership.epoch,
        d_plus,
        router.seed,
        membership.shards[0].node_size_bytes,
        encode or _default_encode,
    )
    return store.save(artifacts, crash_after_step=crash_after_step)


def load_cluster(
    directory: PathLike,
    metric: Metric,
    decode: Optional[Decoder] = None,
    **router_kwargs: Any,
) -> Router:
    """Reconstruct a :class:`Router` from the committed generation.

    Runs :meth:`GenerationStore.recover` first (idempotent), so a
    cluster killed at *any* byte of a rebalance reopens at exactly one
    epoch: the old one if the crash preceded the manifest commit point,
    the new one after it.  Shard trees, pivot profiles and RDDs are
    rebuilt from the stored exact pivot distances — no distance is
    recomputed.
    """
    decode = decode or _default_decode
    store = GenerationStore(directory)
    store.recover()
    texts = store.load()
    if MEMBERSHIP_ARTIFACT not in texts:
        raise CorruptedDataError(
            f"committed generation in {directory} has no "
            f"{MEMBERSHIP_ARTIFACT!r} artifact"
        )
    doc = loads_artifact(
        texts[MEMBERSHIP_ARTIFACT], source=str(directory)
    )
    if doc.get("format") != REBALANCE_FORMAT:
        raise CorruptedDataError(
            f"membership artifact format {doc.get('format')!r} is not "
            f"{REBALANCE_FORMAT!r}"
        )
    epoch = int(doc["epoch"])
    d_plus = float(doc["d_plus"])
    seed = int(doc["seed"])
    node_size_bytes = int(doc["node_size_bytes"])
    shards: List[Shard] = []
    for entry in sorted(doc["shards"], key=lambda e: int(e["shard_id"])):
        shard_id = int(entry["shard_id"])
        name = f"{SHARD_ARTIFACT_PREFIX}{shard_id}"
        if name not in texts:
            raise CorruptedDataError(
                f"membership epoch {epoch} references missing shard "
                f"artifact {name!r}"
            )
        tree = mtree_from_dict(
            loads_artifact(texts[name], source=name), metric, decode
        )
        by_oid = dict(tree.iter_objects())
        oids = [int(oid) for oid in entry["oids"]]
        if sorted(by_oid) != sorted(oids):
            raise CorruptedDataError(
                f"shard {shard_id} tree does not hold the oids its "
                f"membership entry lists"
            )
        objects = [by_oid[oid] for oid in oids]
        stats = ShardStats.from_objects(
            shard_id,
            objects,
            decode(entry["pivot"]),
            metric,
            d_plus,
            distances=np.asarray(entry["pivot_distances"], dtype=np.float64),
        )
        shards.append(
            Shard(
                shard_id=shard_id,
                objects=objects,
                oids=oids,
                metric=metric,
                stats=stats,
                node_size_bytes=node_size_bytes,
                seed=seed,
                epoch=epoch,
                tree=tree,
            )
        )
    return Router(shards, metric, seed=seed, epoch=epoch, **router_kwargs)


class Rebalancer:
    """Drives the staged, journaled, resumable rebalance protocol.

    Owns the cluster's :class:`~repro.service.GenerationStore` directory
    plus the rebalance journal and staging files that live next to it.
    Not thread-safe — rebalances are an administrative operation;
    serialise them externally (the :class:`ClusterLifecycle` does).
    """

    def __init__(
        self,
        directory: PathLike,
        metric: Metric,
        encode: Optional[Encoder] = None,
        decode: Optional[Decoder] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store = GenerationStore(self.directory)
        self.metric = metric
        self.encode: Encoder = encode or _default_encode
        self.decode: Decoder = decode or _default_decode

    # -- paths / documents -------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.directory / REBALANCE_JOURNAL_NAME

    def _staging_path(self, shard_id: int) -> Path:
        return self.directory / f"{STAGING_PREFIX}{shard_id}.json"

    def _staging_files(self) -> List[Path]:
        return sorted(self.directory.glob(f"{STAGING_PREFIX}*.json"))

    def _read_journal(self) -> Optional[Dict[str, Any]]:
        if not self.journal_path.exists():
            return None
        try:
            return json.loads(self.journal_path.read_text())
        except json.JSONDecodeError:
            # A torn journal cannot happen (atomic replace); a
            # hand-damaged one is treated as unresumable debris.
            return {"format": REBALANCE_FORMAT, "epoch_to": None}

    def _write_journal(self, doc: Dict[str, Any]) -> None:
        _atomic_write_text(self.journal_path, json.dumps(doc))

    def committed_epoch(self) -> Optional[int]:
        """The membership epoch of the committed generation, if any.

        Reads only the manifest and the membership artifact — cheap
        enough for recovery/GC paths that must not load whole trees.
        """
        if self.store.generation is None:
            return None
        texts = self.store.load()
        if MEMBERSHIP_ARTIFACT not in texts:
            return None
        doc = loads_artifact(
            texts[MEMBERSHIP_ARTIFACT], source=str(self.directory)
        )
        return int(doc["epoch"])

    # -- protocol ----------------------------------------------------------

    def total_steps(self, n_shards: int) -> int:
        """Steps in one from-scratch rebalance of ``n_shards`` shards:
        journal + one staging copy per shard + the store's own save
        protocol over ``n_shards + 1`` artifacts + final cleanup."""
        return 1 + n_shards + self.store.total_save_steps(n_shards + 1) + 1

    def execute(
        self,
        router: Optional[Router],
        plan: RebalancePlan,
        crash_after_step: Optional[int] = None,
    ) -> RebalanceOutcome:
        """Run (or resume) the rebalance protocol for ``plan``.

        With a live ``router`` the source objects come from its current
        membership and the new membership is installed (epoch bump +
        fencing) after the commit; without one — the resume-after-crash
        path — objects are read back from the committed old generation.
        ``crash_after_step=k`` performs the first ``k`` protocol steps
        and raises :class:`~repro.service.SimulatedCrashError`, exactly
        like :meth:`GenerationStore.save`.
        """
        from ..service.recovery import SimulatedCrashError

        step = 0
        total = self.total_steps(plan.n_shards)

        def checkpoint() -> None:
            nonlocal step
            step += 1
            if crash_after_step is not None and step > crash_after_step:
                raise SimulatedCrashError(
                    f"simulated crash after step {crash_after_step} "
                    f"of {total}",
                    step=crash_after_step,
                )

        if router is not None:
            membership = router.membership
            if membership.epoch != plan.epoch_from:
                raise StaleEpochError(
                    f"plan was made at epoch {plan.epoch_from} but the "
                    f"router is at {membership.epoch}; re-plan",
                    epoch=membership.epoch,
                )
            source_oids, source_objects = _collect_objects(membership)
        else:
            loaded = load_cluster(self.directory, self.metric,
                                  decode=self.decode)
            if loaded.epoch != plan.epoch_from:
                raise StaleEpochError(
                    f"plan targets epoch {plan.epoch_from} -> "
                    f"{plan.epoch_to} but the committed epoch is "
                    f"{loaded.epoch}",
                    epoch=loaded.epoch,
                )
            source_oids, source_objects = _collect_objects(loaded.membership)
        by_oid = dict(zip(source_oids, source_objects))
        planned = {oid for group in plan.oids for oid in group}
        if planned != set(by_oid):
            raise CorruptedDataError(
                f"rebalance plan covers {len(planned)} oids but the "
                f"source membership holds {len(by_oid)}"
            )

        # Step 1: the write-ahead rebalance journal (skipped on resume).
        journal = self._read_journal()
        staged_done: set = set()
        resumed = 0
        if journal is not None:
            if journal.get("epoch_to") != plan.epoch_to or (
                journal.get("epoch_from") != plan.epoch_from
            ):
                raise InvalidParameterError(
                    f"an unrecovered rebalance journal targets epoch "
                    f"{journal.get('epoch_to')}; run recover()/gc() "
                    f"before starting a new rebalance"
                )
            staged_done = {int(s) for s in journal.get("staged", [])}
            resumed = len(staged_done)
        else:
            checkpoint()
            journal = self._journal_document(plan, staged=[])
            self._write_journal(journal)

        # Steps 2..n+1: stage each target shard's slice (resumable —
        # the journal's ``staged`` cursor names the copies already
        # durable, so a resumed run re-does at most one shard).
        for shard_id in range(plan.n_shards):
            if shard_id in staged_done:
                continue
            checkpoint()
            oids = plan.oids[shard_id]
            doc = {
                "format": REBALANCE_FORMAT,
                "kind": "rebalance-staging",
                "epoch_to": plan.epoch_to,
                "shard_id": shard_id,
                "oids": list(oids),
                "objects": [self.encode(by_oid[oid]) for oid in oids],
            }
            _atomic_write_text(self._staging_path(shard_id), json.dumps(doc))
            staged_done.add(shard_id)
            journal = self._journal_document(
                plan, staged=sorted(staged_done)
            )
            self._write_journal(journal)

        # Build + verify the new shards from the staged copies (pure
        # compute: no durable state changes, so no protocol steps).
        new_shards = self._build_shards(plan)

        # Commit: one store.save of every tree + the membership — the
        # manifest replace inside is the cluster-wide commit point.
        remaining: Optional[int] = None
        if crash_after_step is not None:
            remaining = crash_after_step - step
            if remaining >= self.store.total_save_steps(plan.n_shards + 1):
                remaining = None
        artifacts = _cluster_artifacts(
            new_shards, plan.epoch_to, plan.d_plus, plan.seed,
            plan.node_size_bytes, self.encode,
        )
        generation = self.store.save(artifacts, crash_after_step=remaining)
        step += self.store.total_save_steps(len(artifacts))

        # Final step: the staging files and journal have served.
        checkpoint()
        for path in self._staging_files():
            path.unlink(missing_ok=True)
        self.journal_path.unlink(missing_ok=True)

        moved = self._count_moved(plan, source_membership_oids=by_oid,
                                  router=router)
        fresh: Optional[ClusterMembership] = None
        if router is not None:
            fresh = router.install_membership(new_shards, plan.epoch_to)
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.lifecycle.rebalances", reason=plan.reason)
            reg.inc("cluster.lifecycle.objects_moved", moved)
        return RebalanceOutcome(
            plan=plan,
            epoch=plan.epoch_to,
            generation=generation,
            moved=moved,
            resumed_shards=resumed,
            total_steps=total,
            installed=router is not None,
            membership=fresh,
        )

    def _journal_document(
        self, plan: RebalancePlan, staged: List[int]
    ) -> Dict[str, Any]:
        return {
            "format": REBALANCE_FORMAT,
            "kind": "rebalance-journal",
            "epoch_from": plan.epoch_from,
            "epoch_to": plan.epoch_to,
            "n_shards": plan.n_shards,
            "d_plus": plan.d_plus,
            "seed": plan.seed,
            "node_size_bytes": plan.node_size_bytes,
            "reason": plan.reason,
            "oids": [list(group) for group in plan.oids],
            "pivots": [self.encode(pivot) for pivot in plan.pivots],
            "staged": staged,
        }

    def _plan_from_journal(self, journal: Dict[str, Any]) -> RebalancePlan:
        return RebalancePlan(
            epoch_from=int(journal["epoch_from"]),
            epoch_to=int(journal["epoch_to"]),
            n_shards=int(journal["n_shards"]),
            d_plus=float(journal["d_plus"]),
            seed=int(journal["seed"]),
            node_size_bytes=int(journal["node_size_bytes"]),
            oids=tuple(
                tuple(int(oid) for oid in group)
                for group in journal["oids"]
            ),
            pivots=tuple(
                self.decode(p) for p in journal.get("pivots", [])
            ),
            old_cost=0.0,
            new_cost=0.0,
            reason=str(journal.get("reason", "resume")),
        )

    def _build_shards(self, plan: RebalancePlan) -> List[Shard]:
        """Decode every staged slice into a verified, routable shard."""
        shards: List[Shard] = []
        for shard_id in range(plan.n_shards):
            path = self._staging_path(shard_id)
            if not path.exists():
                raise CorruptedDataError(
                    f"staging file for shard {shard_id} is missing "
                    f"mid-rebalance"
                )
            doc = json.loads(path.read_text())
            oids = [int(oid) for oid in doc["oids"]]
            if oids != list(plan.oids[shard_id]):
                raise CorruptedDataError(
                    f"staging file for shard {shard_id} does not match "
                    f"the journaled plan"
                )
            objects = [self.decode(p) for p in doc["objects"]]
            pivot = (
                plan.pivots[shard_id]
                if shard_id < len(plan.pivots)
                else objects[0]
            )
            stats = ShardStats.from_objects(
                shard_id, objects, pivot, self.metric, plan.d_plus
            )
            shard = Shard(
                shard_id=shard_id,
                objects=objects,
                oids=oids,
                metric=self.metric,
                stats=stats,
                node_size_bytes=plan.node_size_bytes,
                seed=plan.seed,
                epoch=plan.epoch_to,
            )
            report = shard.fsck()
            if not report.ok:
                raise CorruptedDataError(
                    f"rebuilt tree for shard {shard_id} failed fsck: "
                    f"{report.kinds()}"
                )
            shards.append(shard)
        return shards

    @staticmethod
    def _count_moved(
        plan: RebalancePlan,
        source_membership_oids: Dict[int, Any],
        router: Optional[Router],
    ) -> int:
        if router is None:
            return 0
        old_home: Dict[int, int] = {}
        for shard in router.membership.shards:
            for oid in shard.oids:
                old_home[int(oid)] = shard.shard_id
        moved = 0
        for shard_id, group in enumerate(plan.oids):
            for oid in group:
                if old_home.get(oid) != shard_id:
                    moved += 1
        return moved

    def resume(
        self,
        router: Optional[Router] = None,
        crash_after_step: Optional[int] = None,
    ) -> Optional[RebalanceOutcome]:
        """Continue a journaled rebalance after a crash, if one is
        resumable; returns None when there is nothing to resume.

        The journal carries the full plan, so no live router is needed:
        sources are re-read from the committed old generation and only
        the staging copies the journal has not marked durable are
        re-done.  A journal whose target epoch is already committed is
        finished debris — :meth:`recover` handles it, not resume.
        """
        journal = self._read_journal()
        if journal is None or journal.get("epoch_to") is None:
            return None
        committed = self.committed_epoch()
        if committed is not None and committed >= int(journal["epoch_to"]):
            return None
        plan = self._plan_from_journal(journal)
        return self.execute(router, plan, crash_after_step=crash_after_step)

    # -- recovery / garbage collection ------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Roll crash debris forward or back; idempotent, call on open.

        Store-level recovery first (an interrupted ``save`` rolls
        forward past its commit point, back before it), then
        rebalance-level: a journal whose target epoch is already the
        committed one is *finished* — staging files and journal are
        removed (rolled forward); a journal whose target was never
        committed is left in place (it is resumable) unless its shape
        is unreadable.
        """
        store_recovery = self.store.recover()
        # Finish any interrupted old-generation GC: a file the committed
        # manifest does not own is garbage by definition (the manifest
        # replace is the commit point), but the store's own recovery
        # leaves it when the crash hit *after* the journal unlink.
        swept_generations = 0
        for name in self.store.stale_files():
            (self.directory / name).unlink(missing_ok=True)
            swept_generations += 1
        journal = self._read_journal()
        action = "clean"
        if journal is not None:
            epoch_to = journal.get("epoch_to")
            committed = self.committed_epoch()
            if epoch_to is None or (
                committed is not None and committed >= int(epoch_to)
            ):
                for path in self._staging_files():
                    path.unlink(missing_ok=True)
                self.journal_path.unlink(missing_ok=True)
                action = "rolled_forward"
            else:
                action = "resumable"
        elif self._staging_files():
            # Staging without a journal: debris from a crash between
            # the staging write and its journal update — unreferenced,
            # reclaim it.
            for path in self._staging_files():
                path.unlink(missing_ok=True)
            action = "swept_staging"
        return {
            "action": action,
            "store": store_recovery.action,
            "generation": store_recovery.generation,
            "swept_generation_files": swept_generations,
            "epoch": self.committed_epoch(),
        }

    def gc_report(self) -> Dict[str, Any]:
        """Read-only census of reclaimable crash debris.

        Reports stale rebalance journals (target epoch already
        committed), orphaned staging files, and generation files the
        committed manifest does not own — everything a mid-rebalance
        kill can strand.  ``python -m repro doctor`` check 14 and the
        ``gc`` subcommand are built on this.
        """
        journal = self._read_journal()
        committed = self.committed_epoch()
        journal_state = "none"
        if journal is not None:
            epoch_to = journal.get("epoch_to")
            if epoch_to is None:
                journal_state = "unreadable"
            elif committed is not None and committed >= int(epoch_to):
                journal_state = "stale"
            else:
                journal_state = "resumable"
        staging = [path.name for path in self._staging_files()]
        orphaned_staging = (
            staging if journal_state in ("none", "stale", "unreadable")
            else []
        )
        stale_generation_files = self.store.stale_files()
        clean = (
            journal_state in ("none", "resumable")
            and not orphaned_staging
            and not stale_generation_files
        )
        return {
            "directory": str(self.directory),
            "committed_epoch": committed,
            "journal": journal_state,
            "journal_epoch_to": (
                journal.get("epoch_to") if journal is not None else None
            ),
            "staging_files": staging,
            "orphaned_staging": orphaned_staging,
            "stale_generation_files": stale_generation_files,
            "clean": clean,
        }

    def gc(self, force: bool = False) -> Dict[str, Any]:
        """Reclaim crash debris; returns what was removed.

        Runs :meth:`recover` (which rolls the store and finished
        journals), then removes anything the report still flags.  A
        *resumable* journal is preserved unless ``force`` is set —
        forcing abandons the in-flight rebalance (its staging copies
        and journal are deleted; the committed old epoch keeps serving).
        """
        before = self.gc_report()
        recovery = self.recover()
        removed: List[str] = list(
            before["orphaned_staging"] + before["stale_generation_files"]
        )
        if before["journal"] in ("stale", "unreadable"):
            removed.append(REBALANCE_JOURNAL_NAME)
        if force and before["journal"] == "resumable":
            for path in self._staging_files():
                path.unlink(missing_ok=True)
                removed.append(path.name)
            self.journal_path.unlink(missing_ok=True)
            removed.append(REBALANCE_JOURNAL_NAME)
        reg = _obs.registry
        if reg is not None and removed:
            reg.inc("cluster.lifecycle.gc_reclaimed", len(removed))
        return {
            "recovery": recovery,
            "removed": sorted(set(removed)),
            "report": self.gc_report(),
        }
