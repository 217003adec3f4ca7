"""Spatial partitioning — the paper's stated future work, implemented.

Section VI: "We did not partition data points based on the
neighbourhood relationship in our work and that might cause workload to
be unbalanced. So, in the future, we will consider partitioning the
input data points before they are assigned to executors."

The SEED mechanism works on index ranges, so spatial partitioning
reduces to *reordering indices spatially* and reusing the whole
pipeline unchanged.  We reorder by kd-tree leaf order: the tree's
median splits recursively bisect space, so consecutive permuted indices
are spatial neighbours and contiguous index ranges become compact
spatial cells.  Consequences measured in the ablation benches: far
fewer cross-partition SEEDs and partial clusters, cheaper driver-side
merging.

As a plan composition this is literally the Spark plan plus a
`SpatialReorder` stage after `LoadPoints` and a permutation-undoing
`RelabelFilter` tail (``spatial`` in `repro.pipeline.build_plan`).
"""

from __future__ import annotations

import warnings

import numpy as np

from ..kdtree import KDTree
from .spark_job import SparkDBSCAN, SparkDBSCANResult


def spatial_order(points: np.ndarray, leaf_size: int = 64) -> np.ndarray:
    """Permutation putting spatially-near points at nearby indices.

    Uses the kd-tree build permutation: leaves are contiguous blocks of
    mutually-close points, visited in space-partition order.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    tree = KDTree(points, leaf_size=leaf_size)
    return tree._perm.copy()


class SpatialSparkDBSCAN(SparkDBSCAN):
    """`SparkDBSCAN` with neighbourhood-aware partitioning.

    Points are spatially reordered before index-range partitioning;
    labels are mapped back to the caller's original point order, so the
    API is a drop-in replacement.  With ``keep_partials=True`` the
    partial clusters' ``members``/``seeds``/``borders`` are likewise
    remapped to caller order (so they align with ``labels``); the
    ``lo``/``hi`` partition ranges necessarily stay in the *reordered*
    index space (a spatial cell is not an index range in caller order) —
    ``result.perm`` carries the reordering for anyone who needs them.
    """

    ALGORITHM = "spatial"

    def fit(self, points, sc=None, *, tree=None) -> SparkDBSCANResult:
        """Run the clustering over the given points.

        A caller-provided ``tree`` is deprecated here and ignored: the
        kd-tree must be built over the *reordered* points, so a tree in
        caller order cannot be reused (the pre-refactor implementation
        silently discarded it; now it warns).
        """
        if tree is not None:
            warnings.warn(
                "SpatialSparkDBSCAN.fit() ignores a prebuilt tree: the "
                "index must be rebuilt over the spatially-reordered "
                "points; drop the argument",
                DeprecationWarning,
                stacklevel=2,
            )
        return super().fit(points, sc=sc, tree=None)
