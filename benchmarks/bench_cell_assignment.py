"""Cell planning: the chunked adjacency sweep vs the per-pair oracle.

`build_cell_assignment` (the cell plan's driver stage, DESIGN.md §10)
finds Chebyshev-adjacent cell pairs with one sorted-key sweep and runs
the eps-box halo test as array passes over bounded chunks.  The test
oracle (`tests/dbscan/oracle.py::cell_assignment`) is the algorithm it
replaced: an all-pairs adjacency scan, one small numpy halo test per
adjacent cross-partition pair, and a dense ``(partitions, n)`` halo
matrix.  Both run here on the same inputs:

- Quest "c" at d=10 (10 clusters, std 8, 5% noise, eps 25, 4
  partitions) at 3,200 points — one `clustered-cells` benchmark
  dataset — and at 25,600 points;
- one d=2 case (Quest "c" generator at d=2, 25,600 points, 16
  partitions), where 3^d is far below the occupied-cell count.

Each call runs in a fresh interpreter, so the reported ``VmHWM`` (peak
resident set, from ``/proc/self/status``) is that call's own, next to
the interpreter's RSS before the call.  The two results must be
byte-identical (owned/halo/halo_home values and dtypes, n, cell count),
compared through a digest.  Rows land in
``benchmarks/results/cell_assignment.json``.

Run: ``PYTHONPATH=src:benchmarks python -m pytest
benchmarks/bench_cell_assignment.py -q -s`` (about a minute, most of it
the oracle at 25,600 points).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from _harness import print_table, save_results

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (label, n, d, partitions); eps is 25 throughout.
CASES = [
    ("quest-c d=10", 3_200, 10, 4),
    ("quest-c d=10", 25_600, 10, 4),
    ("quest-c d=2", 25_600, 2, 16),
]

#: What one child runs: generate, time one assignment, report.
CHILD = r"""
import hashlib, json, sys, time
sys.path[:0] = [ROOT, ROOT + "/src"]
import numpy as np
from repro.data.quest import generate_clustered

def vm(key):
    for line in open("/proc/self/status"):
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024.0

points = np.ascontiguousarray(generate_clustered(
    n=N, d=D, num_clusters=10, cluster_std=8.0, noise_fraction=0.05, seed=1,
).points)
if IMPL == "sweep":
    from repro.dbscan.cells import build_cell_assignment as assign
else:
    from tests.dbscan.oracle import cell_assignment as assign
rss_before = vm("VmRSS")
t0 = time.perf_counter()
a = assign(points, 25.0, P)
seconds = time.perf_counter() - t0
h = hashlib.sha256(repr((a.n, a.num_partitions, a.num_cells)).encode())
for name in ("owned", "halo", "halo_home"):
    for arr in getattr(a, name):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"|")
print(json.dumps({
    "seconds": seconds, "vmhwm_mb": vm("VmHWM"), "rss_before_mb": rss_before,
    "num_cells": a.num_cells, "halo_points": a.halo_points_total,
    "digest": h.hexdigest(),
}))
"""


def _run(impl: str, n: int, d: int, partitions: int) -> dict:
    code = (
        f"ROOT = {ROOT!r}; IMPL = {impl!r}; N = {n}; D = {d}; P = {partitions}\n"
        + CHILD
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, cwd=ROOT,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cell_assignment_sweep_vs_oracle(benchmark):
    rows, payload = [], []
    for label, n, d, partitions in CASES:
        sweep = _run("sweep", n, d, partitions)
        oracle = _run("oracle", n, d, partitions)
        assert sweep["digest"] == oracle["digest"], (label, n)
        rows.append([
            label, n, partitions, sweep["num_cells"], sweep["halo_points"],
            round(oracle["seconds"], 2), round(sweep["seconds"], 3),
            round(oracle["seconds"] / sweep["seconds"], 1),
            round(oracle["vmhwm_mb"], 1), round(sweep["vmhwm_mb"], 1),
            round(sweep["rss_before_mb"], 1),
        ])
        payload.append({
            "case": label, "n": n, "d": d, "partitions": partitions,
            "num_cells": sweep["num_cells"],
            "halo_points": sweep["halo_points"],
            "sweep": sweep, "oracle": oracle,
        })
    print_table(
        "build_cell_assignment: chunked sweep vs per-pair oracle",
        ["case", "n", "P", "cells", "halo", "oracle (s)", "sweep (s)",
         "speedup", "oracle VmHWM (MB)", "sweep VmHWM (MB)",
         "RSS before (MB)"],
        rows,
    )
    save_results("cell_assignment", payload)

    # The sweep is faster and no larger at every size measured.
    for r in payload:
        assert r["sweep"]["seconds"] < r["oracle"]["seconds"]
        assert r["sweep"]["vmhwm_mb"] <= r["oracle"]["vmhwm_mb"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
