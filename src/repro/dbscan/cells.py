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
   The driver plans halos with array passes, for every d: one sorted-key
   sweep finds the adjacent cross-partition cell pairs chunk by chunk,
   each chunk's (pair, point) rows take the box test at once, and the
   survivors accumulate as sorted ``partition * n + point`` keys — no
   per-pair loop, no all-pairs cell scan, no ``(partitions, n)`` mask.
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

#: Rows (cell pair, foreign point) one chunk of the adjacency sweep may
#: expand to; bounds the halo plan's working memory independently of
#: the number of partitions and adjacent pairs.
_CHUNK_ROWS = 1 << 14


class CellGrid:
    """Batch uniform grid over a fixed point set, cell edge = ``eps``.

    The batch counterpart of `GridIndex` (which is mutable and
    insert-oriented): built once over the whole array with vectorised
    binning, it exposes the occupied cells, their point lists (ascending
    global index, also as the CSR ``order``/``starts``), and Chebyshev
    adjacency between occupied cells.
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
        # Points grouped by cell (CSR: cell i holds order[starts[i]:
        # starts[i + 1]]); the stable sort keeps ascending global index
        # within each cell (the determinism contract needs it).
        self.order = order = np.argsort(inverse, kind="stable")  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        self.starts = starts = np.concatenate(([0], np.cumsum(self.counts)))
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

    def adjacent_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ordered pairs ``(i, j)``, ``i != j``, of Chebyshev-adjacent
        occupied cells (coordinates differing by at most 1 everywhere),
        as two int64 arrays sorted by ``(i, j)``.

        Built by the same sweep as the halo plan (`adjacent_chunks`), for
        every d: neither the 3^d offset box nor an all-pairs scan.
        """
        none = np.empty(0, dtype=np.int64)
        chunks = list(self.adjacent_chunks())
        i = np.concatenate([none, *(i for i, _ in chunks)])
        j = np.concatenate([none, *(j for _, j in chunks)])
        order = np.lexsort((j, i))
        return i[order], j[order]

    def adjacent_chunks(
        self, cell_pid: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the adjacent pairs ``(i, j)`` in chunks of ascending
        ``i``; with ``cell_pid``, only pairs owned by different partitions.

        Candidates come from `_windows`, filtered by full Chebyshev
        distance.  A chunk spans whole cells, cut so that the points of
        its candidate cells stay under `_CHUNK_ROWS` (one cell alone may
        exceed it), which bounds the halo test's (pair, point) rows too.
        """
        m = self.num_cells
        if m == 0:
            return
        by_key, lo, hi = self._windows()
        # Points in each cell's windows: an upper bound on its rows.
        csum = np.concatenate(([0], np.cumsum(self.counts[by_key])))
        bound = np.concatenate(([0], np.cumsum((csum[hi] - csum[lo]).sum(axis=1))))
        s = 0
        while s < m:
            e = int(np.searchsorted(bound, bound[s] + _CHUNK_ROWS, "right")) - 1
            e = max(e, s + 1)
            lens = (hi[s:e] - lo[s:e]).ravel()
            i = np.repeat(np.arange(s, e), lens.reshape(-1, 3).sum(axis=1))
            j = by_key[_ranges(lo[s:e].ravel(), lens)]
            keep = i != j
            if cell_pid is not None:
                keep &= cell_pid[i] != cell_pid[j]
            i, j = i[keep], j[keep]
            near = np.abs(self.cells[i] - self.cells[j]).max(axis=1) <= 1
            yield i[near], j[near]
            s = e

    def _windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sweep's candidate windows: ``(by_key, lo, hi)``.

        ``by_key`` sorts the occupied cells on a composite key over the
        two axes ``a0``, ``a1`` with the most distinct coordinates.  For
        cell i and k = 0, 1, 2, ``by_key[lo[i, k]:hi[i, k]]`` are the
        cells whose ``a0`` coordinate is ``cells[i, a0] + k - 1`` and
        whose ``a1`` coordinate is within 1 of ``cells[i, a1]`` — a
        superset of i's Chebyshev neighbours (and i itself).
        """
        cells = self.cells
        # Key axes by distinct coordinates (the one axis twice at d=1).
        distinct = [len(np.unique(cells[:, a])) for a in range(self.d)]
        ranked = np.argsort(distinct, kind="stable")[::-1]
        a0, a1 = int(ranked[0]), int(ranked[min(1, self.d - 1)])
        u0, r0 = np.unique(cells[:, a0], return_inverse=True)
        u1, r1 = np.unique(cells[:, a1], return_inverse=True)
        width = len(u1)
        key = r0 * width + r1
        by_key = np.argsort(key, kind="stable")
        key = key[by_key]
        lo1 = np.searchsorted(u1, cells[:, a1] - 1, "left")
        hi1 = np.searchsorted(u1, cells[:, a1] + 1, "right")
        lo = np.empty((len(cells), 3), dtype=np.int64)
        hi = np.empty((len(cells), 3), dtype=np.int64)
        for k in range(3):
            target = cells[:, a0] + (k - 1)
            row = np.minimum(np.searchsorted(u0, target), len(u0) - 1)
            lo[:, k] = np.searchsorted(key, row * width + lo1, "left")
            hi[:, k] = np.where(
                u0[row] == target,
                np.searchsorted(key, row * width + hi1, "left"),
                lo[:, k],
            )
        return by_key, lo, hi


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


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` over ``zip(starts, lens)``."""
    first = np.cumsum(lens) - lens
    return np.arange(int(lens.sum())) + np.repeat(starts - first, lens)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a fresh int64 array, sorting it in place (numpy
    2's default hash-based unique is several times slower here)."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _halo_keys(
    grid: CellGrid, eps: float, cell_pid: np.ndarray,
    i: np.ndarray, j: np.ndarray,
) -> np.ndarray:
    """The halo test for cell pairs ``(i, j)`` as array passes: sorted
    unique ``partition * n + point`` keys of the points of cells ``j``
    within eps (plus `HALO_SLACK`) of the boxes of cells ``i``, keyed
    by the partition owning ``i``."""
    # One row per (pair, point of cell j), points in CSR order.
    pair = np.repeat(np.arange(len(j)), grid.counts[j])
    idx = grid.order[_ranges(grid.starts[j], grid.counts[j])]
    q = grid.points[idx]
    lo = grid.cells[i[pair]] * eps
    hi = lo + eps
    # excess = max(lo - q, q - hi, 0), in place over the row buffers.
    excess = np.maximum(np.subtract(lo, q, out=lo),
                        np.subtract(q, hi, out=hi), out=lo)
    np.maximum(excess, 0.0, out=excess)
    np.multiply(excess, excess, out=excess)
    near = excess.sum(axis=1) <= (eps * eps) * (1.0 + HALO_SLACK)
    return _sorted_unique(cell_pid[i[pair[near]]] * grid.n + idx[near])


def build_cell_assignment(
    points: np.ndarray, eps: float, num_partitions: int
) -> CellAssignment:
    """Grid-partition ``points`` and compute each partition's eps-halo.

    A point q in a *foreign* adjacent cell belongs to partition P's halo
    iff q lies within eps of the bounding box of one of P's cells —
    points farther than eps from every owned box cannot be within eps of
    any owned point, so they are never needed.  The comparison carries
    `HALO_SLACK` so halos only ever over-approximate.

    The test runs as array passes over the chunks of
    `CellGrid.adjacent_chunks`: each cross-partition pair (i, j) expands
    to one row per point of cell j, and the rows that pass become sorted
    unique ``partition * n + point`` keys, merged as the chunks go.
    Driver memory is O(chunk + halo), never O(partitions * n).
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    grid = CellGrid(points, eps)  # lint: allow[SCL001] ROADMAP item 1: central driver binning
    cell_pid = balance_cells(grid.counts, num_partitions)
    point_pid = (  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        cell_pid[grid.cell_of_point] if grid.n
        else np.empty(0, dtype=np.int64)
    )

    n = grid.n
    keys = np.empty(0, dtype=np.int64)
    pending: list[np.ndarray] = []
    for i, j in grid.adjacent_chunks(cell_pid):
        pending.append(_halo_keys(grid, eps, cell_pid, i, j))
        # Merge once the pending keys outnumber the merged ones, so a
        # merge never sorts more than twice the keys it adds.
        if sum(len(k) for k in pending) > len(keys):
            keys = _sorted_unique(np.concatenate([keys, *pending]))
            pending = []
    keys = _sorted_unique(np.concatenate([keys, *pending]))

    # Per-partition runs of the keys, turned into point ids in place.
    bounds = np.searchsorted(keys, np.arange(num_partitions + 1) * n)
    keys -= np.repeat(np.arange(num_partitions) * n, np.diff(bounds))
    halo = np.split(keys, bounds[1:-1])
    # Stable sort: ascending global index within each partition.
    owned = np.split(  # lint: allow[SCL001] ROADMAP item 1: central driver binning
        np.argsort(point_pid, kind="stable"),
        np.cumsum(np.bincount(point_pid, minlength=num_partitions))[:-1],
    )
    return CellAssignment(
        n=n,
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
