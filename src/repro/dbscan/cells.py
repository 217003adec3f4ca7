"""Cell partitioning with eps-halos — local indexes, no global broadcast.

The paper (Section VI) defers spatial partitioning: its executors all
receive *one broadcast kd-tree over the whole dataset*, which caps the
scalable dataset size at driver memory.  MR-DBSCAN [He et al. 2014] and
the dDBGSCAN family show the production shape, built here:

1. **CellGrid** — bin points into a uniform grid with cell edge = eps
   (the batch counterpart of `GridIndex`: a point's eps-ball is covered
   by its own cell plus the 3^d - 1 Chebyshev-adjacent cells).
2. **Balanced cell partitions** — greedily pack whole cells into
   ``num_partitions`` groups by per-cell point counts (LPT scheduling),
   so skewed data cannot starve or overload executors the way
   contiguous index ranges do.
3. **eps-halo replication** — each partition additionally receives the
   points of *foreign* adjacent cells that lie within eps of one of its
   own cells' bounding boxes.  Owned points therefore see their entire
   eps-neighbourhood locally, and each executor builds a kd-tree over
   only (owned + halo) points: no executor ever holds a global index.
4. **`cell_local_dbscan`** — the SEED expansion (Algorithm 2 lines
   4-29) over a partition payload, run by the same row kernel as the
   index-range plan: owned points expand, halo points are recorded as
   SEEDs exactly like foreign points there, and the unchanged
   union-find merge (Algorithm 4) stitches the partial clusters over
   those halo edges.

Determinism contract (tests/pipeline/test_cell_plan.py): partitions
scan their owned points in ascending global index, and the collect
stage sorts partials by founder index, so the merged labels are
byte-identical to `SparkDBSCAN` whenever border assignment is
unambiguous (see DESIGN.md §10 for the tie-break rule when it is not).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..kdtree import KDTree
from .partial import (
    SEED_POLICIES,
    OpCounters,
    PartialCluster,
    _expand_rows,
    _rows_with_any,
)

#: Relative slack on the eps comparison used by the halo filter only.
#: ``floor(x / eps)`` and ``cell * eps`` round differently, so a point at
#: *exactly* distance eps from an owned point could otherwise be dropped
#: from the halo by half an ulp.  Over-approximating the halo is always
#: safe: the kd-tree recomputes exact distances inside the partition.
HALO_SLACK = 1e-9


class CellGrid:
    """Batch uniform grid over a fixed point set, cell edge = ``eps``.

    The batch counterpart of `GridIndex` (which is mutable and
    insert-oriented): built once over the whole array with vectorised
    binning, it exposes the occupied cells, their point lists (ascending
    global index), and Chebyshev adjacency between occupied cells.
    """

    def __init__(self, points: np.ndarray, eps: float):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        points = np.ascontiguousarray(points, dtype=np.float64)  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        self.points = points  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        self.eps = float(eps)
        self.n, self.d = points.shape
        coords = np.floor(points / eps).astype(np.int64)  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        if self.n:
            # Occupied cells in lexicographic order; `inverse` maps each
            # point to its cell's row in `cells`.
            cells, inverse = np.unique(coords, axis=0, return_inverse=True)  # lint: allow[SCL001] ROADMAP item 1: central driver binning
            inverse = inverse.ravel()  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        else:
            cells = np.empty((0, self.d), dtype=np.int64)
            inverse = np.empty(0, dtype=np.int64)
        self.cells = cells  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        self.cell_of_point = inverse  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        self.counts = np.bincount(inverse, minlength=len(cells)).astype(np.int64)
        # Points grouped by cell; stable sort keeps ascending global
        # index within each cell (the determinism contract needs it).
        order = np.argsort(inverse, kind="stable")  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        starts = np.concatenate(([0], np.cumsum(self.counts)))
        self.cell_points = [  # lint: allow[SCL001,SCL002] ROADMAP item 1: central driver binning
            order[starts[i]:starts[i + 1]] for i in range(len(cells))
        ]

    @property
    def num_cells(self) -> int:
        """Number of occupied cells."""
        return int(len(self.cells))

    def cell_of(self, x: np.ndarray) -> tuple[int, ...]:
        """Grid coordinates of an arbitrary location."""
        x = np.asarray(x, dtype=np.float64)
        return tuple(int(v) for v in np.floor(x / self.eps).astype(np.int64))

    def adjacent_pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered pairs ``(i, j)``, ``i != j``, of Chebyshev-adjacent
        occupied cells (coordinates differing by at most 1 everywhere).

        Two strategies, same trade as `GridIndex.neighbors`: enumerate
        the 3^d offset box through a dict when it is smaller than the
        occupied-cell count, otherwise scan occupied cells pairwise in
        vectorised blocks (3^d explodes at d=10 while real datasets
        occupy far fewer cells).
        """
        m = self.num_cells
        if m == 0:
            return
        if 3 ** self.d <= m:
            index = {tuple(c): i for i, c in enumerate(self.cells.tolist())}
            for i, c in enumerate(self.cells.tolist()):
                for offset in np.ndindex(*(3,) * self.d):
                    if all(o == 1 for o in offset):
                        continue
                    j = index.get(tuple(b + o - 1 for b, o in zip(c, offset)))
                    if j is not None:
                        yield i, j
        else:
            # Block size keeps the (block, m, d) difference tensor small.
            block = max(1, (1 << 22) // max(1, m * self.d))
            for s in range(0, m, block):
                rows = self.cells[s:s + block]
                cheb = np.abs(
                    rows[:, None, :] - self.cells[None, :, :]
                ).max(axis=2)
                for bi, j in zip(*np.nonzero(cheb <= 1)):
                    i = int(bi) + s
                    j = int(j)
                    if i != j:
                        yield i, j


@dataclass
class CellPayload:
    """Everything one executor needs — shipped as an RDD element, never
    broadcast.  Arrays are global point ids (ascending) and their
    coordinates; ``halo_home`` is each halo point's owning partition."""

    partition: int
    owned_ids: np.ndarray
    halo_ids: np.ndarray
    halo_home: np.ndarray
    owned_points: np.ndarray
    halo_points: np.ndarray

    @property
    def nbytes(self) -> int:
        """Serialized-array payload size (ids + coordinates)."""
        return int(
            self.owned_ids.nbytes + self.halo_ids.nbytes
            + self.halo_home.nbytes + self.owned_points.nbytes
            + self.halo_points.nbytes
        )


@dataclass
class CellAssignment:
    """The driver-side partition plan: who owns what, who sees what.

    ``owned[p]``/``halo[p]`` are ascending global point ids;
    ``halo_home[p]`` gives, per halo point, the partition that owns it
    (the cell plan's analogue of `IndexRangePartitioner.partition`).
    """

    n: int
    num_partitions: int
    num_cells: int
    owned: list[np.ndarray]
    halo: list[np.ndarray]
    halo_home: list[np.ndarray]

    @property
    def halo_points_total(self) -> int:
        """Replicated (halo) point slots across all partitions."""
        return int(sum(len(h) for h in self.halo))

    def to_partitioner(self):
        """An `engine.partitioner.LookupPartitioner` over this ownership
        table — the cell plan's counterpart of `IndexRangePartitioner`
        (ownership is not contiguous, so range checks do not apply)."""
        from ..engine.partitioner import LookupPartitioner

        pid = np.empty(self.n, dtype=np.int64)
        for p, idx in enumerate(self.owned):
            pid[idx] = p
        return LookupPartitioner(pid, self.num_partitions)

    def payloads(self, points: np.ndarray) -> list[CellPayload]:
        """Materialise one `CellPayload` per partition."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        return [
            CellPayload(
                partition=p,
                owned_ids=self.owned[p],
                halo_ids=self.halo[p],
                halo_home=self.halo_home[p],
                owned_points=points[self.owned[p]],
                halo_points=points[self.halo[p]],
            )
            for p in range(self.num_partitions)
        ]


def balance_cells(counts: np.ndarray, num_partitions: int) -> np.ndarray:
    """Assign each cell to a partition, balancing total point counts.

    Greedy LPT: place cells in decreasing size order onto the currently
    least-loaded partition (ties broken by lowest partition id, cells
    tied in size by cell row — all deterministic).
    """
    m = len(counts)
    cell_pid = np.zeros(m, dtype=np.int64)
    if m == 0 or num_partitions <= 1:
        return cell_pid
    order = np.lexsort((np.arange(m), -np.asarray(counts)))
    heap = [(0, p) for p in range(num_partitions)]
    heapq.heapify(heap)
    for i in order:
        load, p = heapq.heappop(heap)
        cell_pid[i] = p
        heapq.heappush(heap, (load + int(counts[i]), p))
    return cell_pid


def build_cell_assignment(
    points: np.ndarray, eps: float, num_partitions: int
) -> CellAssignment:
    """Grid-partition ``points`` and compute each partition's eps-halo.

    A point q in a *foreign* adjacent cell belongs to partition P's halo
    iff q lies within eps of the bounding box of one of P's cells —
    points farther than eps from every owned box cannot be within eps of
    any owned point, so they are never needed.  The comparison carries
    `HALO_SLACK` so halos only ever over-approximate.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    grid = CellGrid(points, eps)  # lint: allow[SCL001] ROADMAP item 1: central driver binning
    cell_pid = balance_cells(grid.counts, num_partitions)
    point_pid = (  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        cell_pid[grid.cell_of_point] if grid.n
        else np.empty(0, dtype=np.int64)
    )

    halo_mask = np.zeros((num_partitions, grid.n), dtype=bool)  # lint: allow[SCL001] ROADMAP item 1: central driver binning
    eps2 = (eps * eps) * (1.0 + HALO_SLACK)
    for i, j in grid.adjacent_pairs():
        pi, pj = int(cell_pid[i]), int(cell_pid[j])
        if pi == pj:
            continue
        idx = grid.cell_points[j]
        q = grid.points[idx]
        lo = grid.cells[i] * eps
        hi = lo + eps
        excess = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        near = (excess * excess).sum(axis=1) <= eps2
        halo_mask[pi, idx[near]] = True

    owned = [  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        np.flatnonzero(point_pid == p).astype(np.int64)
        for p in range(num_partitions)
    ]
    halo = [
        np.flatnonzero(halo_mask[p]).astype(np.int64)
        for p in range(num_partitions)
    ]
    return CellAssignment(
        n=grid.n,
        num_partitions=num_partitions,
        num_cells=grid.num_cells,
        owned=owned,
        halo=halo,
        halo_home=[point_pid[h] for h in halo],
    )


def cell_local_dbscan(
    payload: CellPayload,
    eps: float,
    minpts: int,
    *,
    leaf_size: int = 64,
    seed_policy: str = "all",
    max_neighbors: int | None = None,
    counters: OpCounters | None = None,
    boundary_out: set[int] | None = None,
) -> list[PartialCluster]:
    """SEED expansion over one cell partition's (owned + halo) points.

    Builds a kd-tree over the local payload only, answers every owned
    point's neighbourhood in one batch query, and runs the range plan's
    row kernel over local ids: owned points (local id < n_own, ascending
    global index) expand, reached halo points become SEEDs.  The halo
    makes every owned point's eps-neighbourhood complete locally, so
    core status and memberships match the global-tree computation
    exactly.  ``lo``/``hi`` on the emitted partials are 0: cell
    partitions are not contiguous ranges (`PartialCluster.owns` is a
    range check and does not apply).

    ``boundary_out``, when given, collects *global* ids of owned points
    with ≥1 halo neighbour within eps — the export candidates of the
    edge-based merge (DESIGN.md §11).  The eps-halo over-approximates
    slightly (HALO_SLACK), which only widens this set; the seed/export
    join never probes the extras.
    """
    if seed_policy not in SEED_POLICIES:
        raise ValueError(
            f"seed_policy must be one of {SEED_POLICIES}, got {seed_policy!r}"
        )
    n_own = int(len(payload.owned_ids))
    if n_own == 0:
        return []
    from ..obs.collect import task_span

    n_halo = int(len(payload.halo_ids))
    if n_halo:
        local_points = np.vstack([payload.owned_points, payload.halo_points])
    else:
        local_points = payload.owned_points
    with task_span("task.kdtree_build", n_own=n_own, n_halo=n_halo):
        tree = KDTree(local_points, leaf_size=leaf_size)
    with task_span("task.kdtree_query", n=n_own):
        indptr, indices = tree.query_radius_batch(
            local_points[:n_own], eps, max_neighbors
        )
    if boundary_out is not None:
        rows = _rows_with_any(indptr, indices >= n_own)
        boundary_out.update(payload.owned_ids[rows].tolist())
    halo_home = payload.halo_home
    return _expand_rows(
        payload.partition, range(n_own), indptr, indices, 0, n_own, minpts,
        seed_policy, n_entries=n_own + n_halo,
        home_of=lambda e: int(halo_home[e - n_own]),
        num_homes=len(np.unique(halo_home)), counters=counters,
        owned_ids=payload.owned_ids, halo_ids=payload.halo_ids,
    )


__all__ = [
    "CellAssignment",
    "CellGrid",
    "CellPayload",
    "balance_cells",
    "build_cell_assignment",
    "cell_local_dbscan",
]
