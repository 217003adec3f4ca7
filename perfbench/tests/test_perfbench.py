"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import child
import probes
import run
from workloads import WORKLOADS, Judge, make_points

ROOT = os.path.dirname(run.HERE)
#: Tiny sizes: every workload's code path in a few seconds.
TINY_N = {"clustered-range": 1200, "scattered-edges": 1200, "clustered-cells": 600}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        wl = WORKLOADS[w["name"]]
        for param in (f"n={wl.n},", f" {wl.num_partitions} ",
                      f"{wl.merge_mode} merge", f"{wl.datasets} dataset"):
            assert param in w["why"], (w["name"], param)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == probes.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    wl = replace(WORKLOADS[workload], n=TINY_N[workload])
    result, fits = run.measure(wl, seed=1, seconds=0, trace=bool(trace))
    printed = "\n".join(run.summary(wl, 1, result, fits))
    result = json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, printed
    rounds = -(-run.MIN_FITS // wl.datasets)
    assert result["attempted"] == (3 if trace else rounds * wl.datasets)
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    for name in run.END_TO_END:
        if not trace:
            assert result["metrics"][name]["value"] > 0, name
    if trace:
        # The expansion counter saw every worker's calls, so the count
        # beyond one per partition is never negative.
        assert result["metrics"]["engine.recomputed_partitions"]["value"] >= 0
    assert "fit_fail_ratio" in printed and "missing" not in printed


def _merge_all_clusters(labels: np.ndarray) -> np.ndarray:
    bad = labels.copy()
    bad[bad >= 0] = 0
    return bad


def test_judge_rejects_corrupted_and_renumbered_labels():
    wl = replace(WORKLOADS["clustered-range"], n=1200)
    points = make_points(wl, seed=3)
    judge = Judge(points)
    assert len(set(judge.reference[judge.reference >= 0].tolist())) > 1
    ok, reason = judge.check(_merge_all_clusters(judge.reference))
    assert not ok and "not equivalent" in reason
    assert judge.check(judge.reference) == (True, "ok")
    # Equivalent, but not byte-identical to the fit already accepted.
    renumbered = np.where(judge.reference >= 0, judge.reference + 1, judge.reference)
    ok, reason = judge.check(renumbered)
    assert not ok and "byte-wise" in reason


def test_a_corrupted_fit_counts_as_failed():
    wl = replace(WORKLOADS["clustered-range"], n=TINY_N["clustered-range"])

    class CorruptingJudge:
        def __init__(self, judge):
            self.judge = judge

        def check(self, labels):
            return self.judge.check(_merge_all_clusters(labels))

    def spawn(mode, workload, points_path, tmp, judge, k):
        if k == 1:
            judge = CorruptingJudge(judge)
        return run.spawn_fit(mode, workload, points_path, tmp, judge, k)

    result, fits = run.measure(wl, seed=1, seconds=0, trace=False, spawn=spawn)
    assert result["attempted"] == run.MIN_FITS
    assert result["failed"] == 1
    assert result["correct"] is False
    assert [f.ok for f in fits] == [True, False, True]


def test_a_fit_that_raises_counts_as_failed(tmp_path):
    fit = run.spawn_fit("plain", WORKLOADS["clustered-range"],
                        str(tmp_path / "missing.npy"), str(tmp_path), None, 0)
    assert not fit.ok and fit.reason.startswith("fit raised")


def test_metrics_are_means_of_per_dataset_medians():
    # Two datasets fitted in rounds: dataset 0 took 1, 2, 9 s; dataset 1 took 4, 6 s.
    fits = [run.Fit("plain", True, "ok", fit_s=v) for v in (1, 4, 2, 6, 9)]
    fits.append(run.Fit("plain", False, "timed out"))
    assert run._median(fits, "fit_s", 2) == (2 + 5) / 2
    assert run._median(fits, "fit_s", 1) == 4
    assert run._median(fits[-1:], "fit_s", 1) is None


def test_no_completed_fit_prints_no_result(monkeypatch, capsys):
    wl = WORKLOADS["clustered-range"]
    fits = [run.Fit("plain", False, "timed out")] * run.MIN_FITS
    result = {"correct": False, "attempted": len(fits), "failed": len(fits),
              "metrics": run._end_to_end_metrics(fits, 1)}
    assert all(m["value"] is None for m in result["metrics"].values())
    monkeypatch.setattr(run, "measure", lambda *args: (result, fits))
    code = run.main(["--workload", wl.name, "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    assert code != 0
    assert '"correct"' not in out and "missing" in out


def test_counter_time_stays_out_of_every_span():
    rec = probes.Recorder()

    def slow_count(counts, args, result):
        time.sleep(0.2)
        counts["calls"] += 1

    inner = rec.wrap("inner", lambda: None, slow_count)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    assert rec.counts["calls"] == 1
    assert rec.inclusive["inner"] < 0.1
    assert rec.inclusive["outer"] < 0.1
    assert rec.self_time["outer"] < 0.1


def test_timed_fit_refuses_anything_attached():
    from repro.obs import MetricsRegistry, Tracer
    from repro.pipeline import PipelineRunner, build_plan

    wl = WORKLOADS["clustered-range"]
    clean = child.build_runner(wl, "plain")
    child.assert_plain(clean)
    cfg = clean.config
    attached = [
        PipelineRunner(build_plan(cfg), cfg, tracer=Tracer()),
        PipelineRunner(build_plan(cfg), cfg, metrics_registry=MetricsRegistry()),
    ]
    for profiled in (replace(cfg, profile=True), replace(cfg, profile_alloc=True)):
        attached.append(PipelineRunner(build_plan(profiled), profiled))
    for runner in attached:
        with pytest.raises(RuntimeError, match="not the shipped path"):
            child.assert_plain(runner)

    for install in (lambda r: r.install(probes.TASK_PROBES),
                    lambda r: r.install(probes.DRIVER_PROBES),
                    lambda r: r.install_expansion_counters(),
                    lambda r: r.install_stages(clean.plan)):
        rec = probes.Recorder()
        install(rec)
        try:
            with pytest.raises(RuntimeError, match="probe is installed"):
                child.assert_plain(clean)
        finally:
            rec.restore()
        child.assert_plain(clean)


def test_a_deleted_entry_point_is_reported_missing(monkeypatch):
    import repro.dbscan.partial
    import repro.pipeline

    wl = replace(WORKLOADS["clustered-range"], n=800)
    points = make_points(wl, seed=1)
    # The plan still runs (its stage module kept its own reference), but
    # the public entry point the probe wraps is gone.
    monkeypatch.delattr(repro.dbscan.partial, "local_dbscan")
    out = child.run_fit("serial", wl, points)
    layers = out["layers"]
    for name in ("partial.expand_s", "partial.partials", "partial.seeds"):
        assert layers[name] is None
    assert layers["kdtree.query_s"] > 0
    assert Judge(points).check(out["labels"]) == (True, "ok")
    assert not probes.installed(child.build_runner(wl, "serial").plan)

    monkeypatch.delattr(repro.pipeline, "ApplyGidMap")
    layers = probes.Recorder().traced_metrics(wl.num_partitions, 0)
    assert layers["stage.ApplyGidMap_s"] is None
    assert layers["merge.apply_s"] is None
    assert layers["stage.LocalExpand_s"] == 0.0
    assert layers["engine.recomputed_partitions"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clustered-range",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
