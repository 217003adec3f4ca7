"""Typed pipeline stages for the paper's driver sequence.

Each stage is one box of the paper's fixed driver program (Sections
IV-A–IV-C): read points, build the kd-tree, plan partitions, broadcast,
expand locally, collect partials, merge, relabel.  A stage declares the
state keys it ``requires`` and ``provides`` (see `PipelineState`); the
`PipelineRunner` wires them together, checkpoints the ones that opt in,
and — on ``--resume`` — restores a stage's outputs from disk instead of
re-running it *and everything upstream of it*.

The stage bodies are the pre-refactor frontend code, moved — not
rewritten — so every plan composition produces byte-identical labels,
partials, and OpCounters to the monolithic ``fit`` methods they replace.
The span names emitted here (``driver.kdtree_build``, ``driver.setup``,
``driver.accumulator_drain``, ``driver.merge``, ``driver.relabel``,
``driver.spatial_reorder``, ``executor.partition_expand``) are the same
vocabulary `repro.obs.TraceReport` already understands.

This module is executor-path code and lives under the SHF001
shuffle-free contract; the shuffle-based baselines get their own stage
modules (`stages_naive`, `stages_mapreduce`) outside it.
"""

from __future__ import annotations

import time

import numpy as np

from ..engine import LIST_CONCAT
from ..engine.partitioner import IndexRangePartitioner
from ..kdtree import KDTree
from ..dbscan.core import NOISE
from ..dbscan.merge import EdgeMergePlan, MergeOutcome, merge_edges, merge_partials
from ..dbscan.partial import (
    LocalExpansion,
    OpCounters,
    PartialCluster,
    PartialSummary,
    PartitionDigest,
    digest_payload_nbytes,
    local_dbscan,
    partials_payload_nbytes,
    partition_digest,
)
from ..obs.collect import task_span
from .checkpoint import CheckpointStore
from .state import PipelineState

#: Driver-collected payload size (canonical pickled bytes) of the merge
#: input — partial clusters or digests depending on ``merge_mode``.  The
#: perf gate compares it exactly, hence the canonical rendering.
COLLECT_BYTES_HELP = (
    "Canonical pickled size of the merge payload collected by the driver."
)


def _graft_executor_spans(
    state: PipelineState, partials_per: list[int], seeds_per: list[int]
) -> None:
    """Graft per-partition expansion spans onto the driver trace.

    With one partition per core (the paper's setup) their max is the
    executor wall.
    """
    for pid, dur in enumerate(state.timings.executor_task_durations):
        state.tracer.add_span(
            "executor.partition_expand", dur, cat="executor",
            tid=f"executor-{pid}", partition=pid,
            partials=partials_per[pid], seeds=seeds_per[pid],
        )


class PipelineError(Exception):
    """A plan is mis-wired (missing requires) or a stage misbehaved."""


class Stage:
    """One step of a `Plan`.

    Subclasses set ``name``/``requires``/``provides`` and implement
    ``run``.  Checkpointable stages additionally implement ``save`` and
    ``load``; ``load_requires`` lists the keys a *restore* needs (usually
    fewer than a run — e.g. restoring collected partials needs no engine).
    """

    name: str = "Stage"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    load_requires: tuple[str, ...] = ()
    checkpointable: bool = False
    always_run: bool = False

    def run(self, state: PipelineState) -> None:
        raise NotImplementedError

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


# ---------------------------------------------------------------------------
# shared head: points + index + partition plan
# ---------------------------------------------------------------------------

class LoadPoints(Stage):
    """Validate and normalise the caller's points (driver, Algorithm 2 l.1)."""

    name = "LoadPoints"
    provides = ("points", "n")
    always_run = True

    def run(self, state: PipelineState) -> None:
        with state.tracer.span("driver.load", cat="driver") as sp:
            points = np.ascontiguousarray(state.points, dtype=np.float64)
            if points.ndim != 2:
                raise ValueError(f"points must be 2-D, got shape {points.shape}")
            state.points = points
            state.n = int(points.shape[0])
            sp.annotate(n=state.n, d=int(points.shape[1]))


class SpatialReorder(Stage):
    """Permute points into kd-tree leaf order (the paper's future work).

    Downstream stages then see spatially-compact index ranges; the final
    `RelabelFilter` undoes the permutation so callers never observe it.
    """

    name = "SpatialReorder"
    requires = ("points",)
    provides = ("perm",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        from ..dbscan.spatial import spatial_order

        with state.tracer.span("driver.spatial_reorder", cat="driver") as sp:
            t0 = time.perf_counter()
            perm = spatial_order(state.points, leaf_size=state.config.leaf_size)
            reorder_time = time.perf_counter() - t0
            state.perm = perm
            state.points = state.points[perm]
            sp.annotate(n=state.n, leaf_size=state.config.leaf_size)
        state.timings.setup += reorder_time

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_npz(self.name, perm=state.perm)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        perm = store.load_npz(self.name)["perm"]
        state.perm = perm
        state.points = state.points[perm]


class BuildIndex(Stage):
    """Build the global kd-tree on the driver (Algorithm 2 line 2).

    A prebuilt tree lent by the caller (``fit(..., tree=...)``) short-
    circuits the build, mirroring the pre-refactor fast path used by the
    scaling benchmarks.
    """

    name = "BuildIndex"
    requires = ("points",)
    provides = ("tree",)

    def __init__(self, requires: tuple[str, ...] | None = None):
        if requires is not None:
            self.requires = requires

    def run(self, state: PipelineState) -> None:
        if state.tree is not None:
            return
        with state.tracer.span("driver.kdtree_build", cat="driver") as sp:
            t0 = time.perf_counter()
            state.tree = KDTree(state.points, leaf_size=state.config.leaf_size)
            state.timings.kdtree_build = time.perf_counter() - t0
            sp.annotate(n=state.n, leaf_size=state.config.leaf_size)


class PartitionPlan(Stage):
    """Slice the index space into contiguous executor ranges (line 3)."""

    name = "PartitionPlan"
    requires = ("n",)
    provides = ("partitioner",)

    def run(self, state: PipelineState) -> None:
        state.partitioner = IndexRangePartitioner(
            state.n, state.config.num_partitions
        )


# ---------------------------------------------------------------------------
# the SEED pipeline body (Algorithm 2)
# ---------------------------------------------------------------------------

class BroadcastModel(Stage):
    """Broadcast the tree and parallelize the indices.

    The range plans' only stage that starts the engine; plans whose
    downstream stages are all restored from checkpoints skip it, and the
    resumed run finishes without ever starting a SparkContext.
    """

    name = "BroadcastModel"
    requires = ("tree", "n")
    provides = ("engine",)

    def run(self, state: PipelineState) -> None:
        sc = state.ensure_context()
        with state.tracer.span("driver.setup", cat="driver"):
            t0 = time.perf_counter()
            state.tree_b = sc.broadcast(state.tree)
            state.indices = sc.parallelize(
                range(state.n), state.config.num_partitions
            )
            state.timings.setup += time.perf_counter() - t0


def run_expansion(state: PipelineState, expansions) -> None:
    """The expansion tail shared by `LocalExpand` and `LocalIndexExpand`.

    ``expansions`` is the lazy RDD of one `LocalExpansion` per partition.
    With ``merge_mode="partials"`` each task ships its whole partial
    clusters through the accumulator as it finishes (Algorithm 2 lines
    26-28).  With ``"edges"`` the expansion is cached in the lineage and
    each task ships only its `PartitionDigest` (DESIGN.md §11);
    `ApplyGidMap` later reuses the cached expansion — or
    deterministically recomputes it on a cache miss under the processes
    backend — to label members executor-side.  OpCounters ride a second
    accumulator when a registry is attached, and the job's task
    durations become the executor timings.
    """
    sc = state.sc
    acc = state.acc = sc.accumulator(LIST_CONCAT)
    counters_acc = state.counters_acc = (
        sc.accumulator(LIST_CONCAT)
        if state.metrics_registry is not None
        else None
    )
    edges = state.config.merge_mode == "edges"
    if edges:
        # Counters/digests ship only from the foreach action below, so a
        # cache miss in ApplyGidMap's job cannot double-count.
        expansions = expansions.persist()
        state.extras["expanded_rdd"] = expansions

    def emit(pid: int, it) -> None:
        for exp in it:
            acc.add([partition_digest(exp)] if edges else exp.partials)
            if counters_acc is not None:
                counters_acc.add([(pid, exp.counters)])

    expansions.foreach_partition_with_index(emit)
    durations = sc.last_job_metrics.task_durations()
    state.timings.executor_task_durations = durations
    state.timings.executor_total = sum(durations)
    state.timings.executor_max = max(durations) if durations else 0.0


class LocalExpand(Stage):
    """Run local DBSCAN with SEED placement on every partition (ll. 4-29),
    over the broadcast global tree; `run_expansion` ships the result.
    """

    name = "LocalExpand"
    requires = ("engine", "partitioner")
    provides = ("expanded",)

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        partitioner = state.partitioner
        eps, minpts = cfg.eps, cfg.minpts
        seed_policy, max_neighbors = cfg.seed_policy, cfg.max_neighbors
        tree_b = state.tree_b
        collect_counters = state.metrics_registry is not None
        track_boundary = cfg.merge_mode == "edges"

        def expand(pid: int, it):
            # Worker sub-phase spans: no-ops unless the run collects
            # telemetry, merged into the driver trace either way.
            with task_span("task.broadcast_fetch", partition=pid) as bsp:
                t = tree_b.value
                bsp.annotate(n=len(t.points))
            counters = OpCounters() if collect_counters else None
            boundary: set[int] = set()
            with task_span("task.expand", partition=pid) as esp:
                result = local_dbscan(
                    pid, it, t.points, t, eps, minpts, partitioner,
                    seed_policy=seed_policy, max_neighbors=max_neighbors,
                    counters=counters,
                    boundary_out=boundary if track_boundary else None,
                )
                esp.annotate(partials=len(result))
            yield LocalExpansion(
                partition=pid, partials=result, boundary=boundary,
                counters=counters,
            )

        run_expansion(state, state.indices.map_partitions_with_index(expand))


class CollectPartials(Stage):
    """Drain the accumulator: partial clusters (and OpCounters) to driver.

    The collected list is founder-sorted (by ``members[0]``, globally
    unique) into a canonical order: accumulator merge order follows task
    *completion* under the threads/processes backends, and gid numbering
    downstream must not depend on which executor finished first.
    """

    name = "CollectPartials"
    requires = ("expanded", "engine")
    provides = ("partials",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        tracer = state.tracer
        with tracer.span("driver.accumulator_drain", cat="driver") as sp:
            partials = list(state.acc.value)
            partials.sort(key=lambda c: c.members[0])
            sp.annotate(num_partials=len(partials))
            if state.metrics_registry is not None:
                nbytes = partials_payload_nbytes(partials)
                state.metrics_registry.gauge(
                    "repro_driver_collect_bytes", COLLECT_BYTES_HELP
                ).set(nbytes)
                sp.annotate(collect_bytes=nbytes)
        state.partials = partials

        if tracer.enabled:
            num_partitions = state.config.num_partitions
            partials_per = [0] * num_partitions
            seeds_per = [0] * num_partitions
            for c in partials:
                partials_per[c.partition] += 1
                seeds_per[c.partition] += len(c.seeds)
            _graft_executor_spans(state, partials_per, seeds_per)
        state.counters = (
            list(state.counters_acc.value)
            if state.counters_acc is not None else None
        )
        self._record_counters(state)

    @staticmethod
    def _record_counters(state: PipelineState) -> None:
        if state.counters is None or state.metrics_registry is None:
            return
        from ..obs.registry import record_op_counters

        for pid, oc in state.counters:
            record_op_counters(state.metrics_registry, oc, partition=pid)

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "n": state.n,
            "partials": [
                {
                    "partition": c.partition,
                    "local_id": c.local_id,
                    "lo": c.lo,
                    "hi": c.hi,
                    "members": c.members,
                    "seeds": c.seeds,
                    "borders": sorted(c.borders),
                    "status": c.status,
                }
                for c in state.partials
            ],
            "counters": None if state.counters is None else [
                [pid, vars(oc)] for pid, oc in state.counters
            ],
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.partials = [
            PartialCluster(
                partition=d["partition"], local_id=d["local_id"],
                lo=d["lo"], hi=d["hi"], members=list(d["members"]),
                seeds=list(d["seeds"]), borders=set(d["borders"]),
                status=d["status"],
            )
            for d in doc["partials"]
        ]
        state.counters = (
            None if doc["counters"] is None
            else [(pid, OpCounters(**c)) for pid, c in doc["counters"]]
        )
        self._record_counters(state)


class MergePartials(Stage):
    """Dig SEEDs and merge partial clusters on the driver (Algorithm 4)."""

    name = "MergePartials"
    requires = ("partials", "n")
    provides = ("outcome",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        partials = state.partials
        with state.tracer.span("driver.merge", cat="driver") as sp:
            t0 = time.perf_counter()
            outcome = merge_partials(
                partials,
                state.n,
                strategy=cfg.merge_strategy,
                min_cluster_size=cfg.min_cluster_size,
            )
            state.timings.driver_merge = time.perf_counter() - t0
            sp.annotate(
                strategy=cfg.merge_strategy,
                num_partials=len(partials),
                num_seeds=sum(len(c.seeds) for c in partials),
                num_merges=outcome.num_merges,
                num_global_clusters=outcome.num_global_clusters,
                overlapping_points=outcome.overlapping_points,
            )
        state.outcome = outcome
        if state.metrics_registry is not None:
            from ..obs.registry import record_merge_outcome

            record_merge_outcome(
                state.metrics_registry, outcome.num_merges,
                outcome.num_global_clusters, outcome.overlapping_points,
            )

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        o = state.outcome
        store.save_npz(self.name, labels=o.labels)
        store.save_json(self.name, {
            "num_merges": o.num_merges,
            "num_global_clusters": o.num_global_clusters,
            "overlapping_points": o.overlapping_points,
            "groups": o.groups,
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        stats = store.load_json(self.name)
        labels = store.load_npz(self.name)["labels"].astype(np.int64)
        state.outcome = MergeOutcome(
            labels=labels,
            num_merges=stats["num_merges"],
            num_global_clusters=stats["num_global_clusters"],
            overlapping_points=stats["overlapping_points"],
            groups=[list(g) for g in stats["groups"]],
        )


# ---------------------------------------------------------------------------
# edge-based merge tail (merge_mode="edges", DESIGN.md §11)
# ---------------------------------------------------------------------------

class CollectEdges(Stage):
    """Drain the accumulator: partition digests (and OpCounters) to driver.

    O(edges + partials) bytes cross to the driver — summaries, seed
    half-edges, and boundary exports — never the member point lists,
    which stay cached executor-side for `ApplyGidMap`.
    """

    name = "CollectEdges"
    requires = ("expanded", "engine")
    provides = ("digest",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        tracer = state.tracer
        with tracer.span("driver.accumulator_drain", cat="driver") as sp:
            digests = list(state.acc.value)
            digests.sort(key=lambda d: d.partition)
            sp.annotate(
                num_digests=len(digests),
                num_partials=sum(len(d.summaries) for d in digests),
            )
            if state.metrics_registry is not None:
                nbytes = digest_payload_nbytes(digests)
                state.metrics_registry.gauge(
                    "repro_driver_collect_bytes", COLLECT_BYTES_HELP
                ).set(nbytes)
                sp.annotate(collect_bytes=nbytes)
        state.extras["digest"] = digests

        if tracer.enabled:
            num_partitions = state.config.num_partitions
            partials_per = [0] * num_partitions
            seeds_per = [0] * num_partitions
            for d in digests:
                partials_per[d.partition] += len(d.summaries)
                seeds_per[d.partition] += sum(len(ss) for ss in d.seeds)
            _graft_executor_spans(state, partials_per, seeds_per)
        state.counters = (
            list(state.counters_acc.value)
            if state.counters_acc is not None else None
        )
        CollectPartials._record_counters(state)

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "n": state.n,
            "digests": [
                {
                    "partition": d.partition,
                    "summaries": [
                        [s.partition, s.local_id, s.founder, s.n_members,
                         s.n_seeds, s.n_borders]
                        for s in d.summaries
                    ],
                    "seeds": d.seeds,
                    "exports": [[p, l, bool(core)] for p, l, core in d.exports],
                }
                for d in state.extras["digest"]
            ],
            "counters": None if state.counters is None else [
                [pid, vars(oc)] for pid, oc in state.counters
            ],
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.extras["digest"] = [
            PartitionDigest(
                partition=d["partition"],
                summaries=[
                    PartialSummary(partition=p, local_id=l, founder=f,
                                   n_members=m, n_seeds=s, n_borders=b)
                    for p, l, f, m, s, b in d["summaries"]
                ],
                seeds=[list(ss) for ss in d["seeds"]],
                exports=[(p, l, bool(core)) for p, l, core in d["exports"]],
            )
            for d in doc["digests"]
        ]
        state.counters = (
            None if doc["counters"] is None
            else [(pid, OpCounters(**c)) for pid, c in doc["counters"]]
        )
        CollectPartials._record_counters(state)


class MergeEdges(Stage):
    """Union-find over cluster keys on the driver: O(edges + partials)."""

    name = "MergeEdges"
    requires = ("digest",)
    provides = ("merge_plan",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        digests = state.extras["digest"]
        with state.tracer.span("driver.merge", cat="driver") as sp:
            t0 = time.perf_counter()
            plan = merge_edges(
                digests, min_cluster_size=cfg.min_cluster_size
            )
            state.timings.driver_merge = time.perf_counter() - t0
            sp.annotate(
                strategy=cfg.merge_strategy,
                merge_mode="edges",
                num_partials=plan.num_partials,
                num_seeds=plan.num_seeds,
                num_edges=plan.num_edges,
                num_merges=plan.num_merges,
                num_global_clusters=plan.num_global_clusters,
                overlapping_points=0,
            )
        self._install(state, plan)
        if state.metrics_registry is not None:
            from ..obs.registry import record_merge_outcome

            state.metrics_registry.counter(
                "repro_merge_edges_total",
                "Core seed/export half-edge joins walked by the edge merge.",
            ).inc(plan.num_edges)
            record_merge_outcome(
                state.metrics_registry, plan.num_merges,
                plan.num_global_clusters, 0,
            )

    @staticmethod
    def _install(state: PipelineState, plan: EdgeMergePlan) -> None:
        state.extras["merge_plan"] = plan
        # The result object's partial-cluster counts, without the partials.
        state.extras["num_partials"] = plan.num_partials
        state.extras["num_seeds"] = plan.num_seeds

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        plan = state.extras["merge_plan"]
        store.save_json(self.name, {
            "gid_of": [[p, l, g] for (p, l), g in sorted(plan.gid_of.items())],
            "claims": [[s, g] for s, g in sorted(plan.claims.items())],
            "num_partials": plan.num_partials,
            "num_seeds": plan.num_seeds,
            "num_edges": plan.num_edges,
            "num_merges": plan.num_merges,
            "num_global_clusters": plan.num_global_clusters,
            "groups": plan.groups,
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        plan = EdgeMergePlan(
            gid_of={(p, l): g for p, l, g in doc["gid_of"]},
            claims={s: g for s, g in doc["claims"]},
            num_partials=doc["num_partials"],
            num_seeds=doc["num_seeds"],
            num_edges=doc["num_edges"],
            num_merges=doc["num_merges"],
            num_global_clusters=doc["num_global_clusters"],
            groups=[list(g) for g in doc["groups"]],
        )
        self._install(state, plan)


class ApplyGidMap(Stage):
    """Second distributed pass: label members executor-side via the
    broadcast ``local_cid → gid`` map; the driver assembles per-cluster
    ``(member ids, gid)`` chunks and applies the O(boundary) claims dict.

    Under the processes backend a fresh worker misses the job-1 cache and
    recomputes the expansion through the lineage — deterministically, so
    the digest it was merged under still describes it exactly.
    """

    name = "ApplyGidMap"
    requires = ("merge_plan", "expanded", "engine", "n")
    provides = ("outcome",)
    # A restore rebuilds the outcome from saved labels alone — no engine,
    # so a fully-restored run never starts a SparkContext.
    load_requires = ()
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        plan: EdgeMergePlan = state.extras["merge_plan"]
        expanded = state.extras["expanded_rdd"]
        sc = state.sc
        try:
            with state.tracer.span("driver.apply_labels", cat="driver") as sp:
                t0 = time.perf_counter()
                gid_b = sc.broadcast(dict(plan.gid_of))
                label_acc = sc.accumulator(LIST_CONCAT)

                def apply_partition(pid: int, it) -> None:
                    gid_of = gid_b.value
                    chunks = []
                    for exp in it:
                        for c in exp.partials:
                            gid = gid_of.get((c.partition, c.local_id))
                            if gid is not None and c.members:
                                chunks.append(
                                    (np.asarray(c.members, dtype=np.int64),
                                     gid)
                                )
                    label_acc.add(chunks)

                expanded.foreach_partition_with_index(apply_partition)
                labels = np.full(state.n, NOISE, dtype=np.int64)
                for ids, gid in label_acc.value:
                    labels[ids] = gid
                if plan.claims:
                    claim_ids = np.fromiter(
                        plan.claims.keys(), dtype=np.int64,
                        count=len(plan.claims),
                    )
                    claim_gids = np.fromiter(
                        plan.claims.values(), dtype=np.int64,
                        count=len(plan.claims),
                    )
                    labels[claim_ids] = claim_gids
                state.timings.driver_merge += time.perf_counter() - t0
                sp.annotate(
                    num_labelled_partials=len(plan.gid_of),
                    num_claims=len(plan.claims),
                )
        finally:
            expanded.unpersist()
        state.outcome = MergeOutcome(
            labels=labels,
            num_merges=plan.num_merges,
            num_global_clusters=plan.num_global_clusters,
            overlapping_points=0,
            groups=[list(g) for g in plan.groups],
        )

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        o = state.outcome
        store.save_npz(self.name, labels=o.labels)
        store.save_json(self.name, {
            "num_merges": o.num_merges,
            "num_global_clusters": o.num_global_clusters,
            "overlapping_points": o.overlapping_points,
            "groups": o.groups,
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        stats = store.load_json(self.name)
        labels = store.load_npz(self.name)["labels"].astype(np.int64)
        state.outcome = MergeOutcome(
            labels=labels,
            num_merges=stats["num_merges"],
            num_global_clusters=stats["num_global_clusters"],
            overlapping_points=stats["overlapping_points"],
            groups=[list(g) for g in stats["groups"]],
        )


class RelabelFilter(Stage):
    """Finalise labels: undo any spatial permutation, remap kept partials.

    For the plain (index-partitioned) plans this is the identity tail;
    for the spatial plan it is the pre-refactor ``driver.relabel`` step.
    """

    name = "RelabelFilter"
    requires = ("outcome",)
    provides = ("labels",)
    checkpointable = True

    def __init__(self, spatial: bool = False, keep_partials: bool = False):
        self.spatial = spatial
        if spatial:
            self.requires = ("outcome", "perm")
            self.load_requires = ("perm", "partials") if keep_partials \
                else ("perm",)
            if keep_partials:
                self.requires = self.requires + ("partials",)

    def run(self, state: PipelineState) -> None:
        if not self.spatial:
            state.labels = state.outcome.labels
            return
        perm = state.perm
        with state.tracer.span("driver.relabel", cat="driver"):
            # Undo the permutation: reordered[k] is original point perm[k].
            labels = np.empty_like(state.outcome.labels)
            labels[perm] = state.outcome.labels
            state.labels = labels
            if state.config.keep_partials and state.partials is not None:
                self._remap_partials(state.partials, perm)

    @staticmethod
    def _remap_partials(partials: list[PartialCluster], perm: np.ndarray) -> None:
        for c in partials:
            c.members = [int(perm[m]) for m in c.members]
            c.seeds = [int(perm[s]) for s in c.seeds]
            c.borders = {int(perm[b]) for b in c.borders}

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_npz(self.name, labels=state.labels)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        state.labels = store.load_npz(self.name)["labels"].astype(np.int64)
        if self.spatial and state.config.keep_partials \
                and state.partials is not None:
            # Restored partials are in reordered space; put them back in
            # caller order exactly as a live relabel would have.
            self._remap_partials(state.partials, state.perm)


# ---------------------------------------------------------------------------
# degenerate single-partition plan (Algorithm 1)
# ---------------------------------------------------------------------------

class SequentialExpand(Stage):
    """Classic DBSCAN as a single executor-less expansion over all points."""

    name = "SequentialExpand"
    requires = ("points", "tree")
    provides = ("labels",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        # Imported lazily: repro.dbscan.sequential is itself a thin shim
        # over this pipeline, so a module-level import would be circular.
        from ..dbscan.sequential import _dbscan_array, _dbscan_hashtable

        cfg = state.config
        points, tree = state.points, state.tree
        with state.tracer.span(
            "executor.partition_expand", cat="executor", tid="executor-0",
            partition=0, impl=cfg.impl,
        ):
            indptr, indices = tree.query_radius_batch(
                points, cfg.eps, cfg.max_neighbors
            )

            def neigh_of(j: int) -> np.ndarray:
                return indices[indptr[j]:indptr[j + 1]]

            if cfg.impl == "array":
                state.labels = _dbscan_array(state.n, cfg.minpts, neigh_of)
            else:
                state.labels = _dbscan_hashtable(state.n, cfg.minpts, neigh_of)

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_npz(self.name, labels=state.labels)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        state.labels = store.load_npz(self.name)["labels"].astype(np.int64)


__all__ = [
    "Stage",
    "PipelineError",
    "LoadPoints",
    "SpatialReorder",
    "BuildIndex",
    "PartitionPlan",
    "BroadcastModel",
    "LocalExpand",
    "CollectPartials",
    "MergePartials",
    "CollectEdges",
    "MergeEdges",
    "ApplyGidMap",
    "RelabelFilter",
    "SequentialExpand",
]
