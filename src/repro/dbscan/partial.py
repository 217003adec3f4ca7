"""Executor-side local clustering with SEED placement (Algorithms 2–3).

Each executor owns a contiguous index range of points.  It runs DBSCAN
expansion *only from its own points*; the full dataset's kd-tree (a
broadcast variable) lets it see foreign neighbours, but instead of
expanding them it records them as **SEEDs** — markers that let the
driver discover which partial clusters belong to the same global
cluster.  No executor⇄executor communication ever happens: that is the
paper's central design point.

The executor answers all of its owned points' eps-neighbourhoods with one
batch kd-tree query, then runs the expansion over the stored CSR rows in
`_expand_rows` — the one SEED expansion loop, shared with the cell plan
(`repro.dbscan.cells.cell_local_dbscan`).  It derives the Section III-B
operation counts from its own tallies, so counted and plain runs execute
the same code (DESIGN.md §6).

Seed policies (DESIGN.md §4):

- ``"all"`` (default): every foreign point reached is recorded as a
  seed.  Guarantees exact equivalence with sequential DBSCAN (every
  cross-partition density edge is witnessed, and every cross-partition
  border point is retained).
- ``"one_per_partition"``: the literal reading of Algorithm 3 — at most
  one seed per foreign partition per partial cluster.  Cheaper, but can
  drop cross-partition border points (Ablation A quantifies this).
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..engine.partitioner import IndexRangePartitioner
from ..kdtree import KDTree

SEED_POLICIES = ("all", "one_per_partition")

#: How the executor obtains eps-neighbourhoods (``RunConfig.neighbor_mode``):
#: phase A answers every owned point's neighbourhood in one vectorised
#: kernel call (`KDTree.query_radius_batch`), phase B expands over the
#: stored CSR rows (DESIGN.md §6).
NEIGHBOR_MODES = ("batched",)


@dataclass
class OpCounters:
    """Operation counts of one executor's run — the quantities the paper's
    Section III-B data-structure analysis reasons about.

    The paper: "The number of add operations should be the same as the
    number of remove operations according to the condition in Line 9
    (while loop will not terminate until it is empty)."  That invariant
    (``queue_adds == queue_removes`` at completion) is checked in tests.
    """

    range_queries: int = 0       # kd-tree eps-neighbourhood lookups
    queue_adds: int = 0          # Queue.add (Lines 7 and 17)
    queue_removes: int = 0       # Queue.remove (Line 10)
    hashtable_puts: int = 0      # visited/assignment writes (Line 11)
    hashtable_lookups: int = 0   # containsKey (Lines 5, 7, 17)
    seeds_placed: int = 0
    seeds_skipped: int = 0       # suppressed by the one-per-partition cap

    def merge(self, other: "OpCounters") -> "OpCounters":
        """Merge another instance into this one; returns self."""
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


@dataclass
class PartialCluster:
    """One locally-built cluster, as shipped through the accumulator.

    ``members`` are regular elements (indices inside the partition's
    range); ``seeds`` are foreign indices.  ``status`` mirrors the
    paper's unfinished/finished merge bookkeeping (Figure 4).

    ``borders`` is the subset of ``members`` that are *not* core points.
    The driver's merge needs it: density-connectivity only passes
    through core points, so a SEED that is merely a border member of
    another partial cluster must NOT merge the two (a border point
    shared by two clusters is legal in DBSCAN and does not join them).
    The paper's Algorithm 4 overlooks this distinction — see DESIGN.md
    §4.
    """

    partition: int
    local_id: int
    lo: int                      # partition index range [lo, hi)
    hi: int
    members: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    borders: set[int] = field(default_factory=set)
    status: str = "unfinished"

    def is_core_member(self, index: int) -> bool:
        """True iff ``index`` is a member and a core point."""
        return index not in self.borders

    @property
    def cid(self) -> tuple[int, int]:
        """Globally-unique cluster id: (partition, local id)."""
        return (self.partition, self.local_id)

    @property
    def size(self) -> int:
        """Total number of elements."""
        return len(self.members) + len(self.seeds)

    def owns(self, index: int) -> bool:
        """True iff ``index`` falls inside this partition's range.

        A range check only — it does NOT test membership; an owned index
        may belong to a sibling partial cluster or be noise.  Use
        ``index in cluster.members`` for membership.
        """
        return self.lo <= index < self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartialCluster(p{self.partition}#{self.local_id}, "
            f"range=[{self.lo},{self.hi}), members={len(self.members)}, "
            f"seeds={len(self.seeds)}, {self.status})"
        )


def local_dbscan(
    partition_id: int,
    own_indices: Iterable[int],
    points: np.ndarray,
    tree: KDTree,
    eps: float,
    minpts: int,
    partitioner: IndexRangePartitioner,
    seed_policy: str = "all",
    max_neighbors: int | None = None,
    counters: OpCounters | None = None,
    boundary_out: set[int] | None = None,
) -> list[PartialCluster]:
    """Build the partial clusters of one partition (Algorithm 2 lines 4–29).

    ``own_indices`` is the iterator the executor receives for its
    partition; every index must fall inside the partition's range.
    Returns the partial clusters; noise is implicit (points of this
    partition that are members of no partial cluster anywhere).

    Phase A answers every owned point's eps-neighbourhood with one
    `KDTree.query_radius_batch` call; phase B runs the SEED expansion
    over the stored CSR rows (`_expand_rows`).  Pass an `OpCounters` to
    collect the Section III-B operation counts, derived from the same
    run (DESIGN.md §6).

    ``boundary_out``, when given, collects every owned point that has at
    least one foreign neighbour within eps.  Intersected with a partial
    cluster's members it yields exactly the points some other partition
    can see as a SEED (eps-symmetry) — the export set of the edge-based
    merge (DESIGN.md §11).  Requires ``max_neighbors=None``: truncation
    breaks the symmetry argument.
    """
    if seed_policy not in SEED_POLICIES:
        raise ValueError(f"seed_policy must be one of {SEED_POLICIES}, got {seed_policy!r}")
    lo, hi = partitioner.range_of(partition_id)
    from ..obs.collect import task_span

    with task_span("task.kdtree_query", n=hi - lo):
        indptr, indices = tree.query_radius_batch(points[lo:hi], eps, max_neighbors)
    if boundary_out is not None:
        foreign = (indices < lo) | (indices >= hi)
        boundary_out.update((_rows_with_any(indptr, foreign) + lo).tolist())
    return _expand_rows(
        partition_id, own_indices, indptr, indices, lo, hi, minpts,
        seed_policy, n_entries=points.shape[0],
        home_of=partitioner.partition,
        num_homes=partitioner.num_partitions - 1, counters=counters,
    )


def _rows_with_any(indptr: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Ids of the CSR rows holding at least one flagged entry.

    A cumsum over the flags handles empty rows, unlike np.add.reduceat.
    """
    cs = np.concatenate(([0], np.cumsum(flags)))
    return np.flatnonzero(cs[indptr[1:]] > cs[indptr[:-1]])


def _expand_rows(
    partition_id: int,
    founders: Iterable[int],
    indptr: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    minpts: int,
    seed_policy: str,
    *,
    n_entries: int,
    home_of: Callable[[int], int],
    num_homes: int,
    counters: OpCounters | None = None,
    owned_ids: np.ndarray | None = None,
    halo_ids: np.ndarray | None = None,
) -> list[PartialCluster]:
    """The SEED expansion (Algorithms 2–3) over one partition's CSR rows.

    Row ``k`` holds the eps-neighbourhood of the partition's ``k``-th
    owned point.  A row entry ``e`` in ``[lo, hi)`` is *owned*: its row
    is ``e - lo`` and it is expanded.  Any other entry is *foreign*: it
    is recorded as a SEED and never expanded, because its home partition
    computes its neighbourhood.  ``founders`` are owned entries, scanned
    in order.  In the range plan entries are global ids.  In the cell
    plan they are local ids (``lo = 0``, ``hi = n_own``) and each cluster
    maps its members through ``owned_ids`` and its seeds through
    ``halo_ids[e - hi]`` once, when it is complete.

    Every owned point's core flag is known up front (its row length), so
    the per-element BFS reduces to a FIFO of row ids: the paper's queue
    pops a row's elements contiguously, and rows never repeat an entry,
    so masking a whole row against the row-start state visits, assigns
    and seeds in exactly the per-element order.  ``home_of(e)`` names a
    foreign entry's partition and ``num_homes`` how many foreign
    partitions exist; ``"one_per_partition"`` stops scanning a cluster's
    rows for seeds once every one of them holds a seed.

    The Section III-B counts fall out of tallies the loop keeps anyway:
    the queue takes every entry of every expanded row, each owned entry
    costs two hashtable lookups (visited, assigned) and each founder
    one, and every visit or assignment is one put.
    """
    counts = np.diff(indptr)
    core = counts >= minpts            # every owned point, known up front
    visited = np.zeros(len(counts), dtype=bool)
    assigned = np.zeros(len(counts), dtype=bool)
    # Per-cluster foreign-seed dedup, reset via the seed list itself.
    seen_seed = np.zeros(n_entries, dtype=bool)
    capped = seed_policy == "one_per_partition"
    # Cell partitions are not index ranges; their partials carry (0, 0).
    bounds = (lo, hi) if owned_ids is None else (0, 0)
    partials: list[PartialCluster] = []
    scanned = queued = owned_entries = skipped = 0

    for f in founders:
        f = int(f)
        scanned += 1
        if not lo <= f < hi:
            raise ValueError(
                f"index {f} handed to partition {partition_id} whose range is "
                f"[{lo}, {hi}) — partitioning is inconsistent"
            )
        k = f - lo
        if visited[k]:
            continue
        visited[k] = True
        if not core[k]:
            continue  # noise unless claimed later as a border point
        assigned[k] = True
        member_rows = [np.array([k])]
        seeds: list[int] = []
        homes: set[int] = set()
        queue: deque[int] = deque([k])
        while queue:
            r = queue.popleft()
            row = indices[indptr[r]:indptr[r + 1]]
            queued += row.size
            own_mask = (row >= lo) & (row < hi)
            own = row[own_mask] - lo
            owned_entries += own.size
            newly = own[~visited[own]]
            visited[newly] = True
            queue.extend(newly[core[newly]].tolist())
            join = own[~assigned[own]]
            assigned[join] = True
            member_rows.append(join)
            foreign = row[~own_mask]
            if foreign.size == 0:
                continue
            if not capped:
                # Row entries are distinct, so only cross-row dedup needed.
                new = foreign[~seen_seed[foreign]]
                seen_seed[new] = True
                seeds.extend(new.tolist())
                continue
            if len(homes) < num_homes:
                for s in foreign.tolist():
                    if seen_seed[s]:
                        continue
                    home = home_of(s)
                    if home in homes:
                        continue  # Algorithm 3 line 11: one seed placed already
                    homes.add(home)
                    seen_seed[s] = True
                    seeds.append(s)
                    if len(homes) == num_homes:
                        break
            skipped += foreign.size - int(seen_seed[foreign].sum())
        seed_entries = np.asarray(seeds, dtype=np.intp)
        seen_seed[seed_entries] = False
        rows = np.concatenate(member_rows)
        members = rows + lo if owned_ids is None else owned_ids[rows]
        seed_ids = seed_entries if halo_ids is None else halo_ids[seed_entries - hi]
        partials.append(PartialCluster(
            partition=partition_id, local_id=len(partials),
            lo=bounds[0], hi=bounds[1], members=members.tolist(),
            seeds=seed_ids.tolist(),
            borders=set(members[~core[rows]].tolist()),
        ))

    if counters is not None:
        counters.range_queries += len(counts)
        counters.queue_adds += queued
        counters.queue_removes += queued
        counters.hashtable_lookups += scanned + 2 * owned_entries
        counters.hashtable_puts += int(visited.sum() + assigned.sum())
        counters.seeds_placed += sum(len(c.seeds) for c in partials)
        counters.seeds_skipped += skipped
    return partials


# --------------------------------------------------------------------------
# Edge-based merge representation (DESIGN.md §11).
#
# In ``merge_mode="edges"`` the executor keeps its partial clusters local
# and ships only a `PartitionDigest`: point-free summaries, the seed lists
# (the outgoing half-edges), and the *export* table — boundary members
# another partition can reach, keyed so the driver can join seeds against
# them.  Collected bytes scale with the cross-partition surface, not with
# the number of points.
# --------------------------------------------------------------------------


@dataclass
class PartialSummary:
    """Point-free description of one partial cluster.

    ``founder`` is ``members[0]`` — the cluster's first-expanded point.
    Founders are globally unique (every point is a member of at most one
    partial cluster), so sorting summaries by founder reproduces the
    canonical order `CollectPartials` gives the full partial list, which
    is what keeps gid numbering identical across merge modes.
    """

    partition: int
    local_id: int
    founder: int
    n_members: int
    n_seeds: int
    n_borders: int

    @property
    def cid(self) -> tuple[int, int]:
        """Globally-unique cluster id: (partition, local id)."""
        return (self.partition, self.local_id)

    @property
    def size(self) -> int:
        """Total number of elements — matches `PartialCluster.size`."""
        return self.n_members + self.n_seeds


@dataclass
class LocalExpansion:
    """One partition's expansion output, retained executor-side.

    Cached in the lineage (never collected): job 1 derives the digest
    from it, job 2 applies the broadcast gid map to its members.
    ``boundary`` is the queried-points-with-foreign-neighbours set from
    ``local_dbscan(boundary_out=...)``.
    """

    partition: int
    partials: list[PartialCluster]
    boundary: set[int]
    counters: OpCounters | None = None


@dataclass
class PartitionDigest:
    """The compact merge input one partition ships to the driver.

    ``seeds[k]`` lists the foreign points ``summaries[k]`` reached
    (outgoing half-edges); ``exports`` holds ``(point, local_id,
    is_core)`` for every boundary member — the incoming half-edges.  By
    eps-symmetry a point is a SEED of some other partition iff it has a
    foreign neighbour, so joining seeds against exports recovers exactly
    the owner-map edges the partial-mode merge walks.
    """

    partition: int
    summaries: list[PartialSummary]
    seeds: list[list[int]]
    exports: list[tuple[int, int, bool]]


def partition_digest(exp: LocalExpansion) -> PartitionDigest:
    """Distill one partition's expansion into its merge digest."""
    summaries: list[PartialSummary] = []
    seeds: list[list[int]] = []
    exports: list[tuple[int, int, bool]] = []
    for c in exp.partials:
        summaries.append(
            PartialSummary(
                partition=c.partition,
                local_id=c.local_id,
                founder=c.members[0],
                n_members=len(c.members),
                n_seeds=len(c.seeds),
                n_borders=len(c.borders),
            )
        )
        seeds.append([int(s) for s in c.seeds])
        for m in c.members:
            if m in exp.boundary:
                exports.append((int(m), c.local_id, m not in c.borders))
    return PartitionDigest(
        partition=exp.partition, summaries=summaries, seeds=seeds, exports=exports
    )


def digest_from_partials(partials: list[PartialCluster]) -> list[PartitionDigest]:
    """Digests equivalent to what the executors would have emitted.

    Reference path for tests and benchmarks: without the executors'
    boundary sets, the export table is reconstructed as members ∩
    union-of-all-seeds — every point that actually participates in a
    seed/export join.  (The executor-side export set is a superset —
    boundary members nobody seeded — which the join simply never probes.)
    """
    targets: set[int] = set()
    for c in partials:
        targets.update(c.seeds)
    by_partition: dict[int, list[PartialCluster]] = {}
    for c in partials:
        by_partition.setdefault(c.partition, []).append(c)
    digests = []
    for pid in sorted(by_partition):
        exp = LocalExpansion(
            partition=pid,
            partials=by_partition[pid],
            boundary={m for c in by_partition[pid] for m in c.members if m in targets},
        )
        digests.append(partition_digest(exp))
    return digests


def partials_payload_nbytes(partials: list[PartialCluster]) -> int:
    """Canonical driver-collect size of the partial-mode payload.

    Pickles a plain-tuple rendering (sorted borders, fixed protocol),
    one item at a time, so the byte count is deterministic across
    backends and Python versions — pickling the whole list at once would
    let the memo deduplicate objects shared *across* items (e.g.
    interned status strings), and how much is shared depends on whether
    partials were unpickled per-partition or created in-process.  The
    sum feeds the ``repro_driver_collect_bytes`` gauge the perf gate
    compares exactly.
    """
    return sum(
        len(pickle.dumps(
            (c.partition, c.local_id, c.lo, c.hi, list(c.members),
             list(c.seeds), sorted(c.borders), c.status),
            protocol=4,
        ))
        for c in partials
    )


def digest_payload_nbytes(digests: list[PartitionDigest]) -> int:
    """Canonical driver-collect size of the edge-mode payload.

    Per-digest pickling, summed, for the same backend-invariance reason
    as :func:`partials_payload_nbytes`.
    """
    return sum(
        len(pickle.dumps(
            (
                d.partition,
                [(s.partition, s.local_id, s.founder, s.n_members,
                  s.n_seeds, s.n_borders) for s in d.summaries],
                [[int(x) for x in ss] for ss in d.seeds],
                [(int(p), int(l), bool(core)) for (p, l, core) in d.exports],
            ),
            protocol=4,
        ))
        for d in digests
    )
