"""The batched row kernel against the per-point oracle.

`local_dbscan` answers every owned neighbourhood with one batch query and
expands over the CSR rows; the oracle (tests/dbscan/oracle.py) is the
paper's loop, one kd-tree query per visited point and one queue element
at a time.  They must agree exactly: partial clusters (members, member
order, borders, seeds, seed order), merged labels, and all seven
`OpCounters` fields.  ``neighbor_mode`` survives only as a config field
whose one value is ``"batched"``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import SparkDBSCAN, dbscan_sequential, local_dbscan
from repro.dbscan.partial import NEIGHBOR_MODES, OpCounters
from repro.dbscan.sequential import _dbscan_array, _dbscan_hashtable
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree
from repro.pipeline import RunConfig

from . import oracle


@st.composite
def point_clouds(draw):
    seed = draw(st.integers(0, 10_000))
    n_clumps = draw(st.integers(1, 4))
    per_clump = draw(st.integers(3, 25))
    noise = draw(st.integers(0, 10))
    rng = np.random.default_rng(seed)
    blocks = [
        rng.normal(rng.uniform(-50, 50, 2), draw(st.floats(0.3, 3.0)), (per_clump, 2))
        for _ in range(n_clumps)
    ]
    if noise:
        blocks.append(rng.uniform(-60, 60, (noise, 2)))
    pts = np.vstack(blocks)
    return pts[rng.permutation(len(pts))]


@settings(max_examples=40, deadline=None)
@given(
    pts=point_clouds(),
    p=st.integers(1, 6),
    eps=st.floats(0.5, 8.0),
    minpts=st.integers(2, 6),
    policy=st.sampled_from(("all", "one_per_partition")),
)
def test_batched_partials_identical(pts, p, eps, minpts, policy):
    """Property: partial clusters match the oracle exactly, both policies."""
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    for pid in range(p):
        lo, hi = part.range_of(pid)
        want, _ = oracle.range_partials(pid, pts, tree, eps, minpts, part,
                                        seed_policy=policy)
        got = local_dbscan(pid, range(lo, hi), pts, tree, eps, minpts, part,
                           seed_policy=policy)
        oracle.assert_same_partials(got, want)


@settings(max_examples=25, deadline=None)
@given(
    pts=point_clouds(),
    p=st.integers(1, 5),
    eps=st.floats(0.5, 8.0),
    policy=st.sampled_from(("all", "one_per_partition")),
)
def test_batched_op_counters_identical(pts, p, eps, policy):
    """The Section III-B counts derived by the row kernel equal the
    oracle's element-by-element counts, field for field; range_queries
    covers each owned point exactly once."""
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    for pid in range(p):
        lo, hi = part.range_of(pid)
        _, want = oracle.range_partials(pid, pts, tree, eps, 3, part,
                                        seed_policy=policy)
        got = OpCounters()
        local_dbscan(pid, range(lo, hi), pts, tree, eps, 3, part,
                     seed_policy=policy, counters=got)
        assert vars(got) == vars(want)
        assert got.range_queries == hi - lo
        assert got.queue_adds == got.queue_removes


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def data(self):
        from repro.data import generate_clustered

        g = generate_clustered(n=2500, num_clusters=5, cluster_std=8.0, seed=11)
        return g, KDTree(g.points)

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_spark_labels_byte_identical(self, data, p):
        g, tree = data
        got = SparkDBSCAN(25.0, 5, num_partitions=p).fit(g.points, tree=tree)
        want = oracle.range_labels(g.points, 25.0, 5, p, tree=tree)
        assert got.labels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("impl", ["array", "hashtable"])
    def test_sequential_labels_byte_identical(self, data, impl):
        """Algorithm 1 over the batch CSR rows equals the same loop fed
        one kd-tree query per visited point."""
        g, tree = data
        got = dbscan_sequential(g.points, 25.0, 5, tree=tree, impl=impl)
        loop = _dbscan_array if impl == "array" else _dbscan_hashtable
        want = loop(len(g.points), 5,
                    lambda j: tree.query_radius(g.points[j], 25.0))
        assert got.labels.tobytes() == want.tobytes()

    def test_pruned_queries_also_identical(self, data):
        """The r1m branch-pruning cap composes with the batched kernel."""
        g, tree = data
        got = SparkDBSCAN(25.0, 5, num_partitions=4, max_neighbors=16).fit(
            g.points, tree=tree)
        want = oracle.range_labels(g.points, 25.0, 5, 4, max_neighbors=16,
                                   tree=tree)
        assert got.labels.tobytes() == want.tobytes()

    def test_unknown_mode_rejected(self):
        """``"batched"`` is the only mode; anything else is rejected."""
        for mode in ("per_point", "warp"):
            with pytest.raises(ValueError, match="neighbor_mode"):
                RunConfig(eps=1.0, minpts=3, neighbor_mode=mode)
            with pytest.raises(ValueError, match="neighbor_mode"):
                dbscan_sequential(np.zeros((4, 2)), 1.0, 3, neighbor_mode=mode)
        assert NEIGHBOR_MODES == ("batched",)
        assert RunConfig(eps=1.0, minpts=3).neighbor_mode == "batched"
