"""Per-layer spans, recorded from the benchmark's own files.

Each probe wraps a public entry point of the program (a stage's ``run``,
an engine action, a kd-tree query, a cell or merge function) for the
length of one fit and restores it afterwards; nothing under ``src/``
changes.  Spans stay in memory.  A span's self time is its duration minus
the time of the probed calls made inside it.  Counters that size a
payload run after the span closes, and their time is taken out of every
span still open, so spans carry only the program's time.  Stage spans
are reported whole (stages never nest), and the engine actions inside
them are reported on their own.

Two traced fits share the work (see ``run.py``):

- ``traced`` runs the plan on ``processes[2]``.  Stages, engine actions,
  cell binning and merges execute on the driver, where the probes see
  them.  Expansions run in the forked workers and are only counted, by
  appending to a log file named in ``$PERFBENCH_EXPAND_LOG``; calls beyond
  one per partition are cached expansions recomputed by a later job.
- ``serial`` runs the same plan on ``simulated[P]``: every task executes
  in this process, so the kd-tree and expansion probes see each call.

A probe is installed before the plan starts the engine, so the worker
pool forks with it in place.  An entry point that no longer exists is
skipped; a metric none of whose entry points exist is reported as
``None`` (missing) instead of as zero.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pickle
import sys
import time
from collections import defaultdict
from typing import Callable

EXPAND_LOG_ENV = "PERFBENCH_EXPAND_LOG"

#: Every stage class the three workloads' plans compose.
STAGES = (
    "LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
    "LocalExpand", "CollectPartials", "MergePartials", "CollectEdges",
    "MergeEdges", "ApplyGidMap", "RelabelFilter", "CellPartition",
    "LocalIndexExpand", "CellCollect",
)

#: Per-layer metrics: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"stage.{s}_s": ("s", "lower") for s in STAGES},
    "kdtree.build_s": ("s", "lower"),
    "kdtree.query_s": ("s", "lower"),
    "kdtree.query_points": ("count", "lower"),
    "kdtree.neighbor_ids": ("count", "lower"),
    "kdtree.ids_per_point": ("ids/point", "lower"),
    "partial.expand_s": ("s", "lower"),
    "partial.partials": ("count", "lower"),
    "partial.seeds": ("count", "lower"),
    "cells.assign_s": ("s", "lower"),
    "cells.occupied_cells": ("count", "lower"),
    "cells.halo_points": ("count", "lower"),
    "cells.local_expand_s": ("s", "lower"),
    "merge.merge_s": ("s", "lower"),
    "merge.apply_s": ("s", "lower"),
    "merge.inputs": ("count", "lower"),
    "merge.global_clusters": ("count", "lower"),
    "engine.action_wait_s": ("s", "lower"),
    "engine.jobs": ("count", "lower"),
    "engine.collect_bytes": ("bytes", "lower"),
    "engine.broadcast_bytes": ("bytes", "lower"),
    "engine.recomputed_partitions": ("count", "lower"),
    "engine.worker_peak_rss_mb": ("MB", "lower"),
    "serial.fit_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _pickled_size(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _resolve(module: str, name: str):
    """``module.name``, or None when the entry point no longer exists."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _repro_modules():
    return [
        m for k, m in list(sys.modules.items())
        if m is not None and (k == "repro" or k.startswith("repro."))
    ]


def _is_probe(value) -> bool:
    if isinstance(value, property):
        value = value.fget
    return inspect.isfunction(value) and bool(
        value.__dict__.get("perfbench_probe")
    )


def installed(plan) -> bool:
    """Whether any probe is in place in the program or on ``plan``."""
    for mod in _repro_modules():
        for value in list(vars(mod).values()):
            if _is_probe(value):
                return True
            if isinstance(value, type) and any(
                _is_probe(v) for v in vars(value).values()
            ):
                return True
    return any("run" in vars(stage) for stage in plan.stages)


# -- expansion counting in worker processes -----------------------------------
# Module-level so cloudpickle ships them to workers by reference.  The
# originals are recorded before the pool forks; a worker started any other
# way imports an unpatched program and finds them there.

_ORIGINALS: dict[tuple[str, str], Callable] = {}


def _count_expansion(module: str, name: str, args, kwargs):
    path = os.environ.get(EXPAND_LOG_ENV)
    if path:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, b"x")
        finally:
            os.close(fd)
    fn = _ORIGINALS.get((module, name)) or getattr(
        importlib.import_module(module), name
    )
    return fn(*args, **kwargs)


def counted_local_dbscan(*args, **kwargs):
    return _count_expansion("repro.dbscan.partial", "local_dbscan", args, kwargs)


def counted_cell_local_dbscan(*args, **kwargs):
    return _count_expansion("repro.dbscan.cells", "cell_local_dbscan", args, kwargs)


counted_local_dbscan.perfbench_probe = True
counted_cell_local_dbscan.perfbench_probe = True

_COUNTED = (
    ("repro.dbscan.partial", "local_dbscan", counted_local_dbscan),
    ("repro.dbscan.cells", "cell_local_dbscan", counted_cell_local_dbscan),
)


# -- counters fed from probed calls (args[0] is self for methods) -------------

def _count_job(c, args, result):
    c["engine.jobs"] += 1
    c["engine.collect_bytes"] += _pickled_size(result)


def _count_broadcast(c, args, result):
    c["engine.broadcast_bytes"] += result.nbytes  # pickled to the spill file


def _count_accumulator_read(c, args, result):
    c["engine.collect_bytes"] += _pickled_size(result)


def _count_assignment(c, args, result):
    c["cells.occupied_cells"] += result.num_cells
    c["cells.halo_points"] += result.halo_points_total


def _count_merge_partials(c, args, result):
    c["merge.inputs"] += len(args[0])
    c["merge.global_clusters"] += result.num_global_clusters


def _count_merge_edges(c, args, result):
    c["merge.inputs"] += sum(len(d.summaries) for d in args[0])
    c["merge.global_clusters"] += result.num_global_clusters


def _count_query_batch(c, args, result):
    c["kdtree.query_points"] += len(args[1])
    c["kdtree.neighbor_ids"] += len(result[1])


def _count_query_one(c, args, result):
    c["kdtree.query_points"] += 1
    c["kdtree.neighbor_ids"] += len(result)


def _count_count_batch(c, args, result):
    c["kdtree.query_points"] += len(args[1])


def _count_partials(c, args, result):
    c["partial.partials"] += len(result)
    c["partial.seeds"] += sum(len(p.seeds) for p in result)


# (module, class or None, attribute, span layer, counter)
DRIVER_PROBES = (
    ("repro.engine.context", "SparkContext", "run_job", "engine.run_job", _count_job),
    ("repro.engine.context", "SparkContext", "broadcast", "engine.broadcast", _count_broadcast),
    ("repro.engine.accumulator", "Accumulator", "value", "engine.accumulator_read",
     _count_accumulator_read),
    ("repro.dbscan.cells", None, "build_cell_assignment", "cells.assign", _count_assignment),
    ("repro.dbscan.merge", None, "merge_partials", "merge.merge", _count_merge_partials),
    ("repro.dbscan.merge", None, "merge_edges", "merge.merge", _count_merge_edges),
)

TASK_PROBES = (
    ("repro.kdtree.kdtree", "KDTree", "__init__", "kdtree.build", None),
    ("repro.kdtree.kdtree", "KDTree", "query_radius_batch", "kdtree.query", _count_query_batch),
    ("repro.kdtree.kdtree", "KDTree", "query_radius", "kdtree.query", _count_query_one),
    ("repro.kdtree.kdtree", "KDTree", "count_radius_batch", "kdtree.query", _count_count_batch),
    ("repro.dbscan.partial", None, "local_dbscan", "partial.expand", _count_partials),
    ("repro.dbscan.cells", None, "cell_local_dbscan", "cells.local_expand", None),
)


class Recorder:
    """Installs probes, keeps their spans and counters, restores on exit."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()  # layers with a live entry point
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, count=None) -> Callable:
        def probe(*args, **kwargs):
            span = [time.perf_counter(), 0.0]  # [start, probed time inside]
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - span[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self.inclusive[layer] += dur
                self.self_time[layer] += dur - span[1]
            if count is not None:
                # Sizing a payload is the benchmark's work, not the
                # program's: the span is closed, and every span still open
                # starts that much later.
                t0 = time.perf_counter()
                count(self.counts, args, result)
                spent = time.perf_counter() - t0
                for open_span in self._stack:
                    open_span[0] += spent
            return result

        probe.perfbench_probe = True
        return probe

    def _set(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, new)

    def _replace_everywhere(self, old, new, name: str) -> None:
        # Consumers hold their own ``from ... import name`` binding.
        for mod in _repro_modules():
            if vars(mod).get(name) is old:
                self._set(mod, name, new)

    def install(self, probes) -> None:
        for module, cls_name, attr, layer, count in probes:
            if cls_name is None:
                fn = _resolve(module, attr)
                if not inspect.isfunction(fn):
                    continue
                self._replace_everywhere(fn, self.wrap(layer, fn, count), attr)
            else:
                cls = _resolve(module, cls_name)
                orig = vars(cls).get(attr) if isinstance(cls, type) else None
                if isinstance(orig, property):
                    self._set(cls, attr, property(self.wrap(layer, orig.fget, count)))
                elif inspect.isfunction(orig):
                    self._set(cls, attr, self.wrap(layer, orig, count))
                else:
                    continue
            self.present.add(layer)

    def install_stages(self, plan) -> None:
        for stage in plan.stages:
            self._set(stage, "run",
                      self.wrap(f"stage.{type(stage).__name__}", stage.run))

    def install_expansion_counters(self) -> None:
        for module, name, counted in _COUNTED:
            fn = _resolve(module, name)
            if not inspect.isfunction(fn):
                continue
            _ORIGINALS[(module, name)] = fn
            self._replace_everywhere(fn, counted, name)
            self.present.add(f"count.{name}")

    def restore(self) -> None:
        for owner, name, old in reversed(self._undo):
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()
        _ORIGINALS.clear()

    # -- metrics --------------------------------------------------------------
    def _live(self, *layers: str) -> bool:
        return any(l in self.present for l in layers)

    def traced_metrics(self, num_partitions: int, expansions: int) -> dict:
        """Driver-side layers of a ``processes[2]`` fit."""
        pipeline = importlib.import_module("repro.pipeline")
        m: dict[str, float | None] = {}
        for s in STAGES:
            m[f"stage.{s}_s"] = (
                self.inclusive.get(f"stage.{s}", 0.0)
                if hasattr(pipeline, s) else None
            )
        # The ApplyGidMap stage's own time: the driver assembling labels
        # from the chunks its action returned.
        m["merge.apply_s"] = (
            self.self_time.get("stage.ApplyGidMap", 0.0)
            if hasattr(pipeline, "ApplyGidMap") else None
        )
        get = self._get
        m["engine.action_wait_s"] = get(self.inclusive, "engine.run_job", "engine.run_job")
        m["engine.jobs"] = get(self.counts, "engine.jobs", "engine.run_job")
        m["engine.collect_bytes"] = get(
            self.counts, "engine.collect_bytes",
            "engine.run_job", "engine.accumulator_read",
        )
        m["engine.broadcast_bytes"] = get(
            self.counts, "engine.broadcast_bytes", "engine.broadcast")
        m["engine.recomputed_partitions"] = (
            expansions - num_partitions
            if self._live("count.local_dbscan", "count.cell_local_dbscan")
            else None
        )
        m["cells.assign_s"] = get(self.self_time, "cells.assign", "cells.assign")
        for k in ("cells.occupied_cells", "cells.halo_points"):
            m[k] = get(self.counts, k, "cells.assign")
        m["merge.merge_s"] = get(self.self_time, "merge.merge", "merge.merge")
        for k in ("merge.inputs", "merge.global_clusters"):
            m[k] = get(self.counts, k, "merge.merge")
        return m

    def serial_metrics(self) -> dict:
        """Task-side layers of a ``simulated[P]`` fit."""
        get = self._get
        m: dict[str, float | None] = {
            "kdtree.build_s": get(self.self_time, "kdtree.build", "kdtree.build"),
            "kdtree.query_s": get(self.self_time, "kdtree.query", "kdtree.query"),
            "kdtree.query_points": get(self.counts, "kdtree.query_points", "kdtree.query"),
            "kdtree.neighbor_ids": get(self.counts, "kdtree.neighbor_ids", "kdtree.query"),
            "partial.expand_s": get(self.self_time, "partial.expand", "partial.expand"),
            "partial.partials": get(self.counts, "partial.partials", "partial.expand"),
            "partial.seeds": get(self.counts, "partial.seeds", "partial.expand"),
            "cells.local_expand_s": get(
                self.self_time, "cells.local_expand", "cells.local_expand"),
        }
        pts, ids = m["kdtree.query_points"], m["kdtree.neighbor_ids"]
        m["kdtree.ids_per_point"] = (
            None if pts is None else (ids / pts if pts else 0.0)
        )
        return m

    def _get(self, table: dict, key: str, *layers: str):
        """``table[key]`` (0 if never hit), or None if no layer is live."""
        return table.get(key, 0) if self._live(*layers) else None
