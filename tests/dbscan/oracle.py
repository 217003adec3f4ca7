"""Test oracle: the paper-literal SEED expansion, one element at a time.

Algorithm 2 lines 4–29 with Algorithm 3's SEED placement, written as the
paper states it: a hashtable of visited/assigned points, a FIFO queue of
point ids, and one kd-tree range query (`KDTree.query_radius`) per
visited point.  Every Section III-B operation is counted where it
happens.  The shipped row kernel (`repro.dbscan.partial._expand_rows`)
must reproduce its partial clusters — members and seeds in order,
borders — and all seven `OpCounters` fields exactly, on both the range
plan (`local_dbscan`) and the cell plan (`cell_local_dbscan`).

`cell_assignment` is the same kind of oracle for the cell plan's driver
side: brute-force Chebyshev adjacency over every pair of occupied cells
and one eps-box halo test per adjacent cross-partition pair, marked in a
dense ``(partitions, n)`` matrix.  `build_cell_assignment` must return
exactly its arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.dbscan.cells import (
    HALO_SLACK,
    CellAssignment,
    CellGrid,
    CellPayload,
    balance_cells,
)
from repro.dbscan.merge import merge_partials
from repro.dbscan.partial import OpCounters, PartialCluster
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree


def expand(
    partition: int,
    founders: Iterable[int],
    neigh_of: Callable[[int], list[int]],
    owned: Callable[[int], bool],
    minpts: int,
    seed_policy: str,
    *,
    home_of: Callable[[int], int],
    member_id: Callable[[int], int] = int,
    seed_id: Callable[[int], int] = int,
    bounds: tuple[int, int] = (0, 0),
) -> tuple[list[PartialCluster], OpCounters]:
    """Expand from ``founders``; owned points expand, others become SEEDs.

    Ids handed to ``neigh_of``/``owned``/``home_of`` are the plan's own
    (global in the range plan, local in the cell plan); ``member_id`` and
    ``seed_id`` turn them into the global ids the partials carry.
    """
    c = OpCounters()
    visited: dict[int, bool] = {}
    assignment: dict[int, int] = {}
    core: dict[int, bool] = {}
    partials: list[PartialCluster] = []
    for i in founders:
        c.hashtable_lookups += 1
        if i in visited:
            continue
        visited[i] = True
        c.hashtable_puts += 1
        neigh = neigh_of(i)
        c.range_queries += 1
        core[i] = len(neigh) >= minpts
        if not core[i]:
            continue
        cluster = PartialCluster(
            partition=partition, local_id=len(partials),
            lo=bounds[0], hi=bounds[1], members=[member_id(i)],
        )
        assignment[i] = cluster.local_id
        c.hashtable_puts += 1
        homes: set[int] = set()
        seed_set: set[int] = set()
        queue: deque[int] = deque(neigh)
        c.queue_adds += len(neigh)
        while queue:
            p = queue.popleft()
            c.queue_removes += 1
            if owned(p):
                c.hashtable_lookups += 1
                if p not in visited:
                    visited[p] = True
                    c.hashtable_puts += 1
                    neigh2 = neigh_of(p)
                    c.range_queries += 1
                    core[p] = len(neigh2) >= minpts
                    if core[p]:
                        queue.extend(neigh2)
                        c.queue_adds += len(neigh2)
                c.hashtable_lookups += 1
                if p not in assignment:
                    assignment[p] = cluster.local_id
                    c.hashtable_puts += 1
                    cluster.members.append(member_id(p))
                    if not core[p]:
                        cluster.borders.add(member_id(p))
            else:
                if p in seed_set:
                    continue
                if seed_policy == "one_per_partition":
                    home = home_of(p)
                    if home in homes:
                        c.seeds_skipped += 1
                        continue
                    homes.add(home)
                seed_set.add(p)
                cluster.seeds.append(seed_id(p))
                c.seeds_placed += 1
        partials.append(cluster)
    return partials, c


def range_partials(
    partition: int,
    points: np.ndarray,
    tree: KDTree,
    eps: float,
    minpts: int,
    partitioner: IndexRangePartitioner,
    seed_policy: str = "all",
    max_neighbors: int | None = None,
) -> tuple[list[PartialCluster], OpCounters]:
    """The oracle for `local_dbscan` over the partition's whole range."""
    lo, hi = partitioner.range_of(partition)
    return expand(
        partition, range(lo, hi),
        lambda j: tree.query_radius(points[j], eps, max_neighbors).tolist(),
        lambda p: lo <= p < hi, minpts, seed_policy,
        home_of=partitioner.partition, bounds=(lo, hi),
    )


def cell_partials(
    payload: CellPayload,
    eps: float,
    minpts: int,
    seed_policy: str = "all",
    max_neighbors: int | None = None,
    leaf_size: int = 64,
) -> tuple[list[PartialCluster], OpCounters]:
    """The oracle for `cell_local_dbscan`: local ids, halo points seed."""
    n_own = len(payload.owned_ids)
    if n_own == 0:
        return [], OpCounters()
    local = np.vstack([payload.owned_points, payload.halo_points])
    tree = KDTree(local, leaf_size=leaf_size)
    return expand(
        payload.partition, range(n_own),
        lambda k: tree.query_radius(local[k], eps, max_neighbors).tolist(),
        lambda p: p < n_own, minpts, seed_policy,
        home_of=lambda p: int(payload.halo_home[p - n_own]),
        member_id=lambda p: int(payload.owned_ids[p]),
        seed_id=lambda p: int(payload.halo_ids[p - n_own]),
    )


def adjacent_pairs(cells: np.ndarray) -> Iterator[tuple[int, int]]:
    """Ordered pairs ``(i, j)``, ``i != j``, of occupied cells at
    Chebyshev distance <= 1, by comparing every cell with every other
    (in row blocks, so the difference tensor stays small)."""
    m, d = cells.shape
    block = max(1, (1 << 22) // max(1, m * d))
    for s in range(0, m, block):
        cheb = np.abs(cells[s:s + block, None, :] - cells[None, :, :]).max(axis=2)
        for bi, j in zip(*np.nonzero(cheb <= 1)):
            if int(bi) + s != int(j):
                yield int(bi) + s, int(j)


def cell_assignment(
    points: np.ndarray, eps: float, num_partitions: int
) -> CellAssignment:
    """The oracle for `build_cell_assignment`: one halo test per adjacent
    cross-partition cell pair, marked in a dense halo matrix."""
    grid = CellGrid(points, eps)
    cell_pid = balance_cells(grid.counts, num_partitions)
    point_pid = (
        cell_pid[grid.cell_of_point] if grid.n
        else np.empty(0, dtype=np.int64)
    )
    halo_mask = np.zeros((num_partitions, grid.n), dtype=bool)
    eps2 = (eps * eps) * (1.0 + HALO_SLACK)
    for i, j in adjacent_pairs(grid.cells):
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
    halo = [
        np.flatnonzero(halo_mask[p]).astype(np.int64)
        for p in range(num_partitions)
    ]
    return CellAssignment(
        n=grid.n,
        num_partitions=num_partitions,
        num_cells=grid.num_cells,
        owned=[
            np.flatnonzero(point_pid == p).astype(np.int64)
            for p in range(num_partitions)
        ],
        halo=halo,
        halo_home=[point_pid[h] for h in halo],
    )


def assert_same_assignment(got: CellAssignment, want: CellAssignment):
    """Identical cell plans: sizes, and every owned/halo/halo_home array
    equal in values, order and dtype."""
    assert (got.n, got.num_partitions, got.num_cells) == (
        want.n, want.num_partitions, want.num_cells)
    for name in ("owned", "halo", "halo_home"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b) == want.num_partitions, name
        for p, (x, y) in enumerate(zip(a, b)):
            assert x.dtype == y.dtype, (name, p, x.dtype, y.dtype)
            np.testing.assert_array_equal(x, y, err_msg=f"{name}[{p}]")


def range_labels(
    points: np.ndarray,
    eps: float,
    minpts: int,
    num_partitions: int,
    max_neighbors: int | None = None,
    tree: KDTree | None = None,
) -> np.ndarray:
    """Labels `SparkDBSCAN`'s range plan must reproduce byte for byte:
    oracle partials of every partition, founder-sorted as the collect
    stage does, through the default union-find merge."""
    if tree is None:
        tree = KDTree(points)
    part = IndexRangePartitioner(len(points), num_partitions)
    partials = [
        c
        for pid in range(num_partitions)
        for c in range_partials(pid, points, tree, eps, minpts, part,
                                max_neighbors=max_neighbors)[0]
    ]
    partials.sort(key=lambda c: c.members[0])
    return merge_partials(partials, len(points)).labels


def assert_same_partials(got: list[PartialCluster], want: list[PartialCluster]):
    """Identical partial clusters: ids, bounds, member and seed order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.cid == b.cid
        assert (a.lo, a.hi) == (b.lo, b.hi)
        assert a.members == b.members      # order matters: BFS replay
        assert a.seeds == b.seeds
        assert a.borders == b.borders
