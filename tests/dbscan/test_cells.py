"""Cell partitioning primitives: grid binning, adjacency, LPT balance,
eps-halo completeness, and the per-partition SEED expansion."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import generate_clustered, generate_skewed
from repro.dbscan.cells import (
    CellGrid,
    balance_cells,
    build_cell_assignment,
    cell_local_dbscan,
)
from repro.dbscan.partial import OpCounters
from repro.kdtree import KDTree

from . import oracle


def assert_adjacency_matches_brute_force(grid: CellGrid):
    i, j = grid.adjacent_pairs()
    assert i.dtype == j.dtype == np.int64
    assert list(zip(i.tolist(), j.tolist())) == list(oracle.adjacent_pairs(grid.cells))


class TestCellGrid:
    def test_binning_partitions_the_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 100, (300, 3))
        grid = CellGrid(pts, eps=10.0)
        assert int(grid.counts.sum()) == 300
        seen = np.concatenate(grid.cell_points)
        assert sorted(seen.tolist()) == list(range(300))
        for ci, idx in enumerate(grid.cell_points):
            # Ascending global index within each cell (the determinism
            # contract), and every point binned to its own coordinates.
            assert (np.diff(idx) > 0).all() or len(idx) <= 1
            want = np.floor(pts[idx] / 10.0).astype(np.int64)
            assert (want == grid.cells[ci]).all()

    def test_empty(self):
        grid = CellGrid(np.empty((0, 2)), eps=1.0)
        assert grid.num_cells == 0
        i, j = grid.adjacent_pairs()
        assert i.dtype == j.dtype == np.int64
        assert len(i) == len(j) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CellGrid(np.zeros((3, 2)), eps=0.0)
        with pytest.raises(ValueError):
            CellGrid(np.zeros(3), eps=1.0)

    def test_adjacency_offset_strategy_matches_brute_force(self):
        # d=2, many occupied cells: the 3^2 = 9 offset box is smaller
        # than the occupied-cell count.
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 60, (400, 2))
        grid = CellGrid(pts, eps=5.0)
        assert 3 ** grid.d <= grid.num_cells
        assert_adjacency_matches_brute_force(grid)

    def test_adjacency_scan_strategy_matches_brute_force(self):
        # d=10: 3^10 = 59 049 offsets dwarf the occupied-cell count.
        g = generate_skewed(400, d=10, seed=2)
        grid = CellGrid(g.points, eps=25.0)
        assert 3 ** grid.d > grid.num_cells
        assert_adjacency_matches_brute_force(grid)

    def test_csr_matches_cell_points(self):
        rng = np.random.default_rng(3)
        grid = CellGrid(rng.uniform(0, 30, (200, 3)), eps=4.0)
        for c, idx in enumerate(grid.cell_points):
            got = grid.order[grid.starts[c]:grid.starts[c + 1]]
            np.testing.assert_array_equal(got, idx)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 300),
    d=st.integers(1, 6),
    eps=st.floats(0.5, 3.0),
)
@example(seed=0, n=300, d=2, eps=1.0)    # 3^d <= occupied cells
@example(seed=0, n=300, d=6, eps=1.0)    # 3^d > occupied cells
def test_adjacency_property(seed, n, d, eps):
    """The sweep finds exactly the all-pairs Chebyshev adjacency, in
    (i, j) order, whichever of 3^d and the cell count is larger."""
    rng = np.random.default_rng(seed)
    assert_adjacency_matches_brute_force(CellGrid(rng.uniform(0, 10, (n, d)), eps))


class TestBalanceCells:
    def test_deterministic_and_complete(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 50, 40)
        a = balance_cells(counts, 4)
        b = balance_cells(counts, 4)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= set(range(4))

    def test_lpt_bound(self):
        """Greedy LPT: no partition exceeds the average load by more
        than one cell's worth of points."""
        rng = np.random.default_rng(4)
        counts = rng.integers(1, 100, 60)
        pid = balance_cells(counts, 5)
        loads = np.bincount(pid, weights=counts, minlength=5)
        assert loads.max() <= counts.sum() / 5 + counts.max()

    def test_single_partition(self):
        assert (balance_cells(np.array([3, 1, 2]), 1) == 0).all()


class TestHalo:
    @pytest.mark.parametrize("data", [
        generate_clustered(300, seed=5),
        generate_skewed(300, d=10, seed=6, shuffle=False),
    ])
    def test_halo_completes_every_owned_neighborhood(self, data):
        """The load-bearing invariant: every owned point's eps-ball is a
        subset of (owned + halo), so executor-local core status and
        memberships equal the global computation."""
        eps = 25.0
        a = build_cell_assignment(data.points, eps, 4)
        tree = KDTree(data.points)
        for p in range(a.num_partitions):
            visible = set(a.owned[p].tolist()) | set(a.halo[p].tolist())
            for i in a.owned[p]:
                ball = tree.query_radius(data.points[i], eps)
                assert set(ball.tolist()) <= visible
        # Ownership is a partition of 0..n-1; halos never overlap it.
        all_owned = np.concatenate(a.owned)
        assert sorted(all_owned.tolist()) == list(range(a.n))
        for p in range(a.num_partitions):
            assert not set(a.halo[p].tolist()) & set(a.owned[p].tolist())

    def test_halo_home_names_the_owner(self):
        data = generate_clustered(200, seed=7)
        a = build_cell_assignment(data.points, 25.0, 3)
        part = a.to_partitioner()
        for p in range(a.num_partitions):
            for g, home in zip(a.halo[p], a.halo_home[p]):
                assert part.partition(int(g)) == int(home)
                assert int(home) != p

    def test_exact_eps_point_lands_in_halo(self):
        """A point at exactly distance eps across a cell boundary must
        be replicated (the HALO_SLACK guarantee)."""
        eps = 1.0
        pts = np.array([[0.5, 0.0], [1.5, 0.0], [10.0, 10.0], [10.5, 10.0]])
        a = build_cell_assignment(pts, eps, 2)
        part = a.to_partitioner()
        if part.partition(0) != part.partition(1):
            p0 = part.partition(0)
            assert 1 in a.halo[p0].tolist()

    def test_single_partition_has_no_halo(self):
        data = generate_clustered(100, seed=8)
        a = build_cell_assignment(data.points, 25.0, 1)
        assert a.halo_points_total == 0
        assert len(a.owned[0]) == a.n


class TestAssignmentOracle:
    """`build_cell_assignment` returns the per-pair oracle's arrays."""

    @pytest.fixture(scope="class")
    def quest_c(self):
        # The Quest "c" family at d=10 and the paper's eps: 3^d far
        # exceeds the occupied cells, and most pairs cross partitions.
        return generate_clustered(
            1_600, d=10, num_clusters=10, cluster_std=8.0,
            noise_fraction=0.05, seed=1,
        ).points

    @pytest.mark.parametrize("partitions", [2, 4, 16])
    def test_quest_c_d10(self, quest_c, partitions):
        oracle.assert_same_assignment(
            build_cell_assignment(quest_c, 25.0, partitions),
            oracle.cell_assignment(quest_c, 25.0, partitions),
        )

    def test_no_partitions_by_points_allocation(self):
        """At 512 partitions the removed dense halo matrix alone took
        P·n bytes; the sweep keeps chunks, halo keys and the O(halo)
        result, and peaks well under half of that."""
        pts = generate_clustered(20_000, d=2, seed=11).points
        build_cell_assignment(pts[:200], 25.0, 4)  # first-call imports
        tracemalloc.start()
        try:
            a = build_cell_assignment(pts, 25.0, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.n == 20_000 and a.halo_points_total > 0
        assert peak < 512 * 20_000 / 2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 250),
    d=st.integers(1, 6),
    partitions=st.integers(1, 8),
    eps=st.floats(0.5, 3.0),
    lattice=st.booleans(),
)
@example(seed=0, n=250, d=2, partitions=3, eps=0.5, lattice=True)
def test_assignment_matches_oracle(seed, n, d, partitions, eps, lattice):
    """Byte-identical to the oracle.  On a 0.1-step lattice many points
    sit at exactly eps from a cell box, and rounding decides them unless
    `HALO_SLACK` does."""
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(0, 60, (n, d)) * 0.1
        eps = round(eps, 1)
    else:
        pts = rng.uniform(0, 10, (n, d))
    oracle.assert_same_assignment(
        build_cell_assignment(pts, eps, partitions),
        oracle.cell_assignment(pts, eps, partitions),
    )


class TestCellLocalDBSCAN:
    def payloads(self, n=250, partitions=3, eps=25.0, seed=9):
        data = generate_clustered(n, seed=seed)
        a = build_cell_assignment(data.points, eps, partitions)
        return data.points, a, a.payloads(data.points)

    def test_partials_are_locally_consistent(self):
        pts, a, payloads = self.payloads()
        tree = KDTree(pts)
        for payload in payloads:
            owned = set(payload.owned_ids.tolist())
            halo = set(payload.halo_ids.tolist())
            for c in cell_local_dbscan(payload, 25.0, 5):
                # Members are owned; seeds live in the halo; the founder
                # is the smallest *core* member (borders claimed by the
                # cluster may carry smaller ids) and is globally core.
                assert set(c.members) <= owned
                assert set(c.seeds) <= halo
                cores = [m for m in c.members if m not in c.borders]
                assert c.members[0] == min(cores)
                assert tree.query_radius(pts[c.members[0]], 25.0).size >= 5

    def test_batched_equals_per_point(self):
        """The row kernel reproduces the per-point oracle: partials and
        every `OpCounters` field, on every payload and both policies."""
        pts, a, payloads = self.payloads()
        for payload in payloads:
            for policy in ("all", "one_per_partition"):
                want, want_counts = oracle.cell_partials(
                    payload, 25.0, 5, seed_policy=policy)
                counts = OpCounters()
                got = cell_local_dbscan(payload, 25.0, 5, seed_policy=policy,
                                        counters=counts)
                oracle.assert_same_partials(got, want)
                assert vars(counts) == vars(want_counts)

    def test_empty_partition(self):
        pts, a, payloads = self.payloads(partitions=3)
        empty = payloads[0]
        empty.owned_ids = empty.owned_ids[:0]
        empty.owned_points = empty.owned_points[:0]
        assert cell_local_dbscan(empty, 25.0, 5) == []

    def test_validation(self):
        _, _, payloads = self.payloads(n=50)
        with pytest.raises(ValueError):
            cell_local_dbscan(payloads[0], 25.0, 5, seed_policy="bogus")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 120),
    d=st.integers(1, 3),
    partitions=st.integers(1, 5),
    eps=st.floats(0.5, 3.0),
)
def test_halo_completeness_property(seed, n, d, partitions, eps):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, (n, d))
    a = build_cell_assignment(pts, eps, partitions)
    assert a.n == n
    if n == 0:
        return
    tree = KDTree(pts)
    for p in range(a.num_partitions):
        visible = set(a.owned[p].tolist()) | set(a.halo[p].tolist())
        for i in a.owned[p]:
            ball = tree.query_radius(pts[i], eps)
            assert set(ball.tolist()) <= visible


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 150),
    d=st.integers(1, 3),
    partitions=st.integers(1, 5),
    eps=st.floats(0.5, 3.0),
    minpts=st.integers(2, 6),
    policy=st.sampled_from(("all", "one_per_partition")),
)
def test_cell_kernel_matches_oracle(seed, n, d, partitions, eps, minpts, policy):
    """Property: on every cell payload, `cell_local_dbscan` equals the
    per-point oracle — partials in order and all seven counters."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, (n, d))
    for payload in build_cell_assignment(pts, eps, partitions).payloads(pts):
        want, want_counts = oracle.cell_partials(
            payload, eps, minpts, seed_policy=policy, leaf_size=8)
        counts = OpCounters()
        got = cell_local_dbscan(payload, eps, minpts, leaf_size=8,
                                seed_policy=policy, counters=counts)
        oracle.assert_same_partials(got, want)
        assert vars(counts) == vars(want_counts)
