"""One fit in a fresh interpreter, spawned by ``run.py``.

    python3 perfbench/child.py MODE WORKLOAD POINTS.npy LABELS_OUT.npy

MODE is ``plain`` (the timed path: ``processes[2]``, nothing attached),
``traced`` (``processes[2]`` with driver-side probes) or ``serial``
(``simulated[P]`` with task-side probes).  The child imports the program,
builds its `PipelineRunner` and notes the monotonic clock (the parent
takes set-up time from that); then it loads the points, fits through a
fresh engine, writes the labels and prints one JSON line with the fit's
wall time and peak memory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MODES = ("plain", "traced", "serial")


def build_runner(workload, mode: str):
    """The production runner for ``workload``; ``serial`` swaps the master."""
    from repro.pipeline import PipelineRunner, RunConfig, build_plan

    master = (
        f"simulated[{workload.num_partitions}]" if mode == "serial"
        else "processes[2]"
    )
    config = RunConfig(master=master, **workload.config_kwargs())
    return PipelineRunner(build_plan(config), config)


def assert_plain(runner) -> None:
    """Refuse a timed fit that would not run the path that ships.

    An attached tracer or registry turns on worker telemetry, and a
    registry routes executors to the slower counted kernel; profiling
    reads process-wide clocks; a probe adds a call per entry point.
    """
    import probes

    problems = []
    if runner.tracer.enabled:
        problems.append("a tracer is attached")
    if runner.metrics_registry is not None:
        problems.append("a metrics registry is attached")
    if runner.config.profile or runner.config.profile_alloc:
        problems.append("profiling is on")
    if probes.installed(runner.plan):
        problems.append("a probe is installed")
    if problems:
        raise RuntimeError("timed fit is not the shipped path: " + "; ".join(problems))


def fit(runner, points):
    """``(labels, seconds)`` from points in memory to labels returned."""
    t0 = time.perf_counter()
    state = runner.run(points)
    labels = state.labels
    return labels, time.perf_counter() - t0


def run_fit(mode: str, workload, points, runner=None) -> dict:
    """Fit once in this process; the layer metrics ride along when traced."""
    import probes

    runner = runner or build_runner(workload, mode)
    if mode == "plain":
        assert_plain(runner)
        labels, seconds = fit(runner, points)
        return {"labels": labels, "fit_s": seconds, "layers": None}
    rec = probes.Recorder()
    log = os.environ.get(probes.EXPAND_LOG_ENV)
    try:
        if mode == "traced":
            rec.install_stages(runner.plan)
            rec.install(probes.DRIVER_PROBES)
            rec.install_expansion_counters()
        else:
            rec.install(probes.TASK_PROBES)
        labels, seconds = fit(runner, points)
    finally:
        rec.restore()
    if mode == "traced":
        expansions = os.path.getsize(log) if log and os.path.exists(log) else 0
        layers = rec.traced_metrics(workload.num_partitions, expansions)
    else:
        layers = rec.serial_metrics()
        layers["serial.fit_s"] = seconds
    return {"labels": labels, "fit_s": seconds, "layers": layers}


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, name, points_path, labels_path = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; expected one of {MODES}")
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runner = build_runner(workload, mode)
    ready = time.monotonic()
    points = np.load(points_path)
    out = run_fit(mode, workload, points, runner)
    # Peak RSS of this driver (VmHWM: getrusage would report the
    # parent's peak, which survives exec) and of the largest reaped child
    # (the pool workers, joined when the runner stopped its engine).
    driver_kb = _status_kb("VmHWM")
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    np.save(labels_path, np.asarray(out["labels"]))
    print(json.dumps({
        "ready": ready,
        "fit_s": out["fit_s"],
        "driver_peak_rss_mb": driver_kb / 1024.0,
        "worker_peak_rss_mb": worker_kb / 1024.0,
        "layers": out["layers"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
