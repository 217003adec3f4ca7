"""The benchmark's workloads: inputs made from a seed, and the label check.

Every workload runs the SEED pipeline with the paper's parameters (d=10,
eps=25, minpts=5, batched neighbourhoods).  The generator settings are
those of the Quest "c" and "r" dataset families in `repro.data.datasets`;
the seed is the benchmark's ``--seed``, passed straight to the generator,
so the program only ever sees the generated points.

Why each workload exists (the layer it exercises, the one it bypasses):

- ``clustered-range``: dense neighbourhoods (mean degree in the hundreds
  against minpts 5), so the kd-tree batch query inside LocalExpand is
  nearly all executor time and the merge is tiny.  Exercises the
  expansion kernel; bypasses cell planning and the edge-merge tail.
- ``scattered-edges``: many small clusters split across partitions, with
  the edge-merge tail.  ApplyGidMap re-expands each partition whose cached
  expansion sits in the other worker, so the tail dominates.  Uses the
  kd-tree layer lightly; bypasses cell planning.
- ``clustered-cells``: the cell plan, whose central driver binning
  (CellPartition) is nearly all of the wall time and grows faster than
  linearly in n.  Nothing is broadcast; bypasses the global kd-tree and
  the edge tail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

EPS = 25.0
MINPTS = 5
DIMENSIONS = 10


@dataclass(frozen=True)
class Workload:
    """One named input family and the plan configuration it runs.

    ``BENCHMARK.json`` repeats these parameters in each workload's ``why``.
    """

    name: str
    generator: str  # "clustered" (Quest "c") or "scattered" (Quest "r")
    n: int
    num_partitions: int
    partitioning: str
    merge_mode: str
    datasets: int = 1  # point sets per run, fitted in turn

    def dataset_seeds(self, seed: int) -> list[int]:
        """Generator seeds of one run's datasets; ``[seed]`` for one."""
        return [seed * self.datasets + j for j in range(self.datasets)]

    def config_kwargs(self) -> dict:
        """`RunConfig` fields other than ``master``."""
        return dict(
            eps=EPS,
            minpts=MINPTS,
            num_partitions=self.num_partitions,
            partitioning=self.partitioning,
            merge_mode=self.merge_mode,
            neighbor_mode="batched",
        )


# Sizes keep one fit near 3 s on a 2-core box, so a run holds many fits.
# The edge workload uses 16 partitions so the luck of which worker holds
# each cached expansion averages out within a fit.  Where a fit's cost
# depends on where the generator puts the clusters (by up to a third
# between seeds on the cell plan, whose binning cost follows the occupied
# cells), a run fits several datasets so that luck averages out too.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("clustered-range", "clustered", 25_600, 4, "range", "partials"),
        Workload("scattered-edges", "scattered", 25_600, 16, "range", "edges", 2),
        Workload("clustered-cells", "clustered", 3_200, 4, "cells", "partials", 4),
    )
}


def make_points(workload: Workload, seed: int) -> np.ndarray:
    """The workload's ``n`` points for generator seed ``seed``."""
    from repro.data.quest import generate_clustered, generate_scattered

    if workload.generator == "clustered":
        data = generate_clustered(
            n=workload.n, d=DIMENSIONS, num_clusters=10, cluster_std=8.0,
            noise_fraction=0.05, seed=seed,
        )
    else:
        data = generate_scattered(
            n=workload.n, d=DIMENSIONS, points_per_cluster=200, cluster_std=5.0,
            noise_fraction=0.10, seed=seed,
        )
    return np.ascontiguousarray(data.points, dtype=np.float64)


class _ScipyRadius:
    """The radius-query interface `clusterings_equivalent` needs, answered
    by scipy so the check shares no code with the kd-tree under test."""

    def __init__(self, tree):
        self._tree = tree

    def query_radius(self, q: np.ndarray, eps: float) -> np.ndarray:
        return np.asarray(self._tree.query_ball_point(q, eps), dtype=np.int64)


class Judge:
    """Checks every fit's labels for one workload and seed.

    A fit passes when its labels are DBSCAN-equivalent to
    `dbscan_sequential` on the same points (core mask from scipy's
    cKDTree) and byte-identical to every earlier passing fit.  The
    reference is computed once, at construction, outside any timed region.
    """

    def __init__(self, points: np.ndarray):
        from scipy.spatial import cKDTree

        from repro.dbscan.sequential import dbscan_sequential

        self.points = points
        self.reference = dbscan_sequential(
            points, EPS, MINPTS, neighbor_mode="batched"
        ).labels
        tree = cKDTree(points)
        counts = tree.query_ball_point(points, EPS, return_length=True)
        self.core = np.asarray(counts) >= MINPTS
        self._index = _ScipyRadius(tree)
        self._verdicts: dict[str, tuple[bool, str]] = {}
        self._accepted: str | None = None

    def check(self, labels: np.ndarray) -> tuple[bool, str]:
        """``(ok, reason)`` for one fit's labels."""
        from repro.dbscan.validation import clusterings_equivalent

        labels = np.asarray(labels)
        key = "{}{}:{}".format(
            labels.dtype.str, labels.shape,
            hashlib.sha256(labels.tobytes()).hexdigest(),
        )
        if key not in self._verdicts:
            self._verdicts[key] = clusterings_equivalent(
                labels, self.reference, self.points, EPS, MINPTS,
                tree=self._index, core=self.core,
            )
        ok, reason = self._verdicts[key]
        if not ok:
            return False, f"not equivalent to dbscan_sequential: {reason}"
        if self._accepted is None:
            self._accepted = key
        elif key != self._accepted:
            return False, "labels differ byte-wise from an earlier fit"
        return True, "ok"
