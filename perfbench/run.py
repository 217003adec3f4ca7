"""The repository benchmark: SEED-pipeline fits, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workload's datasets are generated once, in this process, from
``--seed`` (``Workload.dataset_seeds``); their reference labels and
scipy core masks are computed here too, before any fit and outside every
timed region.  Each fit then runs in a fresh interpreter (``child.py``)
through the production path, ``PipelineRunner(build_plan(cfg),
cfg).run(points)`` on ``processes[2]``, so its set-up, wall time and peak
memory are its own.

``--trace 0`` fits in rounds for ``--seconds`` (at least ``MIN_FITS``
fits), attaching nothing; a round fits each dataset once.  Each
end-to-end metric is the mean over the datasets of the median over that
dataset's fits.
The workers' peak RSS is printed but not gated: on the cell plan the
forked workers inherit however much freed binning heap the driver still
holds, 35-73 MB depending on the seed.  ``--trace 1`` makes, on the first
dataset, one plain fit, one traced ``processes[2]`` fit and one
``simulated[P]`` fit and reports the per-layer metrics (see
``probes.py``).  Every fit's labels are checked
(``workloads.Judge``); a fit that raises or fails the check counts as
failed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

MIN_FITS = 3
FIT_TIMEOUT_S = 120

#: End-to-end metrics: name -> (unit, better).
END_TO_END: dict[str, tuple[str, str]] = {
    "fit_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "driver_peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Fit:
    """What one child reported, and the verdict on its labels."""

    mode: str
    ok: bool
    reason: str
    setup_s: float | None = None
    fit_s: float | None = None
    driver_peak_rss_mb: float | None = None
    worker_peak_rss_mb: float | None = None
    layers: dict = field(default_factory=dict)


def spawn_fit(mode: str, workload, points_path: str, tmp: str, judge, k: int) -> Fit:
    """Run one fit in a fresh interpreter and judge its labels."""
    import numpy as np

    import probes

    labels_path = os.path.join(tmp, f"labels-{k}.npy")
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(tmp, "tmp")  # engine spill dirs stay here
    env[probes.EXPAND_LOG_ENV] = os.path.join(tmp, f"expansions-{k}.log")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, mode, workload.name, points_path, labels_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=FIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_session(proc)
        proc.communicate()
        return Fit(mode, False, f"timed out after {FIT_TIMEOUT_S} s")
    finally:
        _kill_session(proc)  # anything the fit left running
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return Fit(mode, False, f"fit raised: {tail[0]}")
    rec = json.loads(out.strip().splitlines()[-1])
    ok, reason = judge.check(np.load(labels_path))
    return Fit(
        mode, ok, reason,
        setup_s=rec["ready"] - started,
        fit_s=rec["fit_s"],
        driver_peak_rss_mb=rec["driver_peak_rss_mb"],
        worker_peak_rss_mb=rec["worker_peak_rss_mb"],
        layers=rec["layers"] or {},
    )


def _kill_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left in the fit's session and wait until it is gone."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass


def measure(workload, seed: int, seconds: float, trace: bool,
            spawn=spawn_fit) -> tuple[dict, list[Fit]]:
    """One benchmark run; returns the result object and every fit."""
    import numpy as np

    from workloads import Judge, make_points

    datasets = [make_points(workload, s) for s in workload.dataset_seeds(seed)]
    judges = [Judge(points) for points in datasets]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        os.mkdir(os.path.join(tmp, "tmp"))
        paths = [os.path.join(tmp, f"points-{j}.npy") for j in range(len(datasets))]
        for path, points in zip(paths, datasets):
            np.save(path, points)
        fits: list[Fit] = []
        if trace:
            for mode in ("plain", "traced", "serial"):
                fits.append(spawn(mode, workload, paths[0], tmp, judges[0], len(fits)))
        else:
            start = time.monotonic()
            while len(fits) < MIN_FITS or time.monotonic() - start < seconds:
                for path, judge in zip(paths, judges):
                    fits.append(spawn("plain", workload, path, tmp, judge, len(fits)))
    failed = sum(not f.ok for f in fits)
    metrics = (
        _layer_metrics(fits) if trace
        else _end_to_end_metrics(fits, workload.datasets)
    )
    result = {
        "correct": failed == 0,
        "attempted": len(fits),
        "failed": failed,
        "metrics": metrics,
    }
    return result, fits


def _median(fits: list[Fit], attr: str, datasets: int) -> float | None:
    """Mean over the datasets of the median ``attr`` of each dataset's
    fits (fits run in rounds, so dataset j's are ``fits[j::datasets]``),
    skipping fits that did not measure it; None if none did."""
    medians = []
    for j in range(datasets):
        values = [getattr(f, attr) for f in fits[j::datasets]]
        values = [v for v in values if v is not None]
        if values:
            medians.append(statistics.median(values))
    return statistics.fmean(medians) if medians else None


def _end_to_end_metrics(fits: list[Fit], datasets: int) -> dict:
    # Over the fits that ran to completion; a fit whose labels failed the
    # check still measured the path.
    return {
        name: {"value": _median(fits, name, datasets), "unit": unit}
        for name, (unit, _) in END_TO_END.items()
    }


def _layer_metrics(fits: list[Fit]) -> dict:
    import probes

    by_mode = {f.mode: f for f in fits}
    values = {**by_mode["traced"].layers, **by_mode["serial"].layers}
    plain, traced = by_mode["plain"].fit_s, by_mode["traced"].fit_s
    values["engine.worker_peak_rss_mb"] = by_mode["plain"].worker_peak_rss_mb
    values["trace.overhead_s"] = (
        traced - plain if plain is not None and traced is not None else None
    )
    return {
        name: {"value": values.get(name), "unit": unit}
        for name, (unit, _) in probes.PER_LAYER.items()
    }


def summary(workload, seed: int, result: dict, fits: list[Fit]) -> list[str]:
    """Human-readable lines: every fit, then every metric with its unit."""
    lines = [
        f"workload {workload.name} seed {seed}: n={workload.n} "
        f"datasets={workload.datasets} (generator seeds "
        f"{workload.dataset_seeds(seed)}) "
        f"partitions={workload.num_partitions} "
        f"partitioning={workload.partitioning} merge_mode={workload.merge_mode}"
    ]
    for k, f in enumerate(fits):
        timing = (
            f"fit {f.fit_s:.3f} s setup {f.setup_s:.3f} s "
            f"driver {f.driver_peak_rss_mb:.1f} MB "
            f"workers {f.worker_peak_rss_mb:.1f} MB"
            if f.fit_s is not None else "no timing"
        )
        lines.append(f"  fit {k} [{f.mode}] {timing}: "
                     f"{'ok' if f.ok else 'FAILED'} ({f.reason})")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    note = f"{result['failed']}/{result['attempted']} fits failed"
    if "fit_s" in result["metrics"]:
        ran = sum(f.fit_s is not None for f in fits)
        note += f"; per-dataset medians over {ran} fits"
        # Not gated: it depends on how much freed driver heap the forked
        # workers inherit (the per-layer run reports it).
        rows.append(("worker_peak_rss_mb",
                     _median(fits, "worker_peak_rss_mb", workload.datasets), "MB"))
    for name, value, unit in rows:
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<32} {shown:>14} {unit}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fit_fail_ratio':<32} {ratio:>14.6g} ratio ({note})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    result, fits = measure(workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(workload, args.seed, result, fits)))
    if not args.trace and any(m["value"] is None for m in result["metrics"].values()):
        # No fit ran to completion: there is nothing to report.
        print("perfbench: no fit produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
