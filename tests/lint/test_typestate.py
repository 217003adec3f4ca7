"""Tests for the flow-sensitive lifecycle rules (`repro.lint.typestate`).

Every rule gets at least one seeded fixture that fires and one
near-miss that must stay silent (branch-local release followed by a
join of states, ``try/finally`` release, ``with`` blocks, escaping
values).  A final gate runs the real self-scan: ``src/repro`` must be
clean under LIF*/RES* with zero pragmas.
"""

import os

import pytest

from repro.lint.analyzer import build_project, run_lint
from repro.lint.typestate import check_typestate, flow_stats

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def scan(tmp_path, source, rules=None):
    """Lint one fixture module; returns the LIF*/RES* findings."""
    path = tmp_path / "fixture.py"
    path.write_text(source)
    project = build_project([str(path)])
    findings = check_typestate(project)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings


class TestLIF001UseAfterStop:
    def test_fires_on_straight_line_use_after_stop(self, tmp_path):
        found = scan(tmp_path, (
            "def f():\n"
            "    sc = SparkContext()\n"
            "    sc.stop()\n"
            "    sc.parallelize([1])\n"
        ), rules=("LIF001",))
        assert len(found) == 1
        f = found[0]
        assert f.rule == "LIF001"
        assert f.line == 4
        assert "sc" in f.message
        assert f.related and f.related[0][1] == 3   # the stop() site

    def test_near_miss_stop_in_one_branch_joins_silent(self, tmp_path):
        found = scan(tmp_path, (
            "def f(flag):\n"
            "    sc = SparkContext()\n"
            "    try:\n"
            "        if flag:\n"
            "            sc.stop()\n"
            "        sc.parallelize([1])\n"   # join: stopped on one path only
            "    finally:\n"
            "        sc.stop()\n"
        ), rules=("LIF001",))
        assert found == []

    def test_near_miss_with_block_use_inside(self, tmp_path):
        found = scan(tmp_path, (
            "def f():\n"
            "    with SparkContext() as sc:\n"
            "        sc.parallelize([1])\n"
        ), rules=("LIF001",))
        assert found == []

    def test_fires_on_use_after_with_block(self, tmp_path):
        found = scan(tmp_path, (
            "def f():\n"
            "    with SparkContext() as sc:\n"
            "        pass\n"
            "    sc.parallelize([1])\n"      # sc stopped by __exit__
        ), rules=("LIF001",))
        assert len(found) == 1

    def test_interprocedural_stop_through_helper(self, tmp_path):
        found = scan(tmp_path, (
            "def shutdown(ctx):\n"
            "    ctx.stop()\n"
            "\n"
            "def f():\n"
            "    sc = SparkContext()\n"
            "    shutdown(sc)\n"
            "    sc.parallelize([1])\n"
        ), rules=("LIF001",))
        assert len(found) == 1
        assert found[0].line == 7

    def test_interprocedural_use_through_helper(self, tmp_path):
        found = scan(tmp_path, (
            "def submit(ctx, data):\n"
            "    return ctx.parallelize(data)\n"
            "\n"
            "def f():\n"
            "    sc = SparkContext()\n"
            "    sc.stop()\n"
            "    submit(sc, [1])\n"
        ), rules=("LIF001",))
        assert len(found) == 1
        assert "submit" in found[0].message

    def test_near_miss_helper_stop_in_one_branch(self, tmp_path):
        found = scan(tmp_path, (
            "def maybe_shutdown(ctx, flag):\n"
            "    if flag:\n"
            "        ctx.stop()\n"
            "\n"
            "def f(flag):\n"
            "    sc = SparkContext()\n"
            "    maybe_shutdown(sc, flag)\n"
            "    sc.parallelize([1])\n"      # may-stop, not must-stop
        ), rules=("LIF001",))
        assert found == []


class TestLIF002WriteAfterClose:
    def test_fires_on_emit_after_close(self, tmp_path):
        found = scan(tmp_path, (
            "def f():\n"
            "    log = EventLog('x.jsonl')\n"
            "    log.close()\n"
            "    log.emit({'event': 'late'})\n"
        ), rules=("LIF002",))
        assert len(found) == 1
        assert found[0].line == 4
        assert found[0].related[0][1] == 3

    def test_near_miss_close_in_one_branch(self, tmp_path):
        found = scan(tmp_path, (
            "def f(flag):\n"
            "    log = EventLog('x.jsonl')\n"
            "    if flag:\n"
            "        log.close()\n"
            "        return\n"
            "    log.emit({'event': 'ok'})\n"
        ), rules=("LIF002",))
        assert found == []

    def test_near_miss_with_block(self, tmp_path):
        found = scan(tmp_path, (
            "def f():\n"
            "    with EventLog('x.jsonl') as log:\n"
            "        log.emit({'event': 'ok'})\n"
        ), rules=("LIF002",))
        assert found == []

    def test_fires_on_record_job_after_with(self, tmp_path):
        found = scan(tmp_path, (
            "def f(metrics):\n"
            "    with EventLog('x.jsonl') as log:\n"
            "        pass\n"
            "    log.record_job(metrics)\n"
        ), rules=("LIF002",))
        assert len(found) == 1


class TestLIF003ActionAfterUnpersist:
    def test_fires_on_action_after_unpersist(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    r.count()\n"
            "    r.unpersist()\n"
            "    r.collect()\n"
        ), rules=("LIF003",))
        assert len(found) == 1
        assert found[0].line == 6
        assert found[0].related[0][1] == 5

    def test_near_miss_unpersist_in_one_branch(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc, flag):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    if flag:\n"
            "        r.unpersist()\n"
            "    r.count()\n"                 # join of persisted+unpersisted
            "    r.unpersist()\n"
        ), rules=("LIF003",))
        assert found == []

    def test_near_miss_transformations_allowed_after_unpersist(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.unpersist()\n"
            "    r2 = r.map(str)\n"           # lineage is still valid
        ), rules=("LIF003",))
        assert found == []

    def test_fires_on_broadcast_value_after_unpersist(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    b = sc.broadcast({1: 2})\n"
            "    b.unpersist()\n"
            "    return b.value\n"
        ), rules=("LIF003",))
        assert len(found) == 1
        assert ".value" in found[0].message


class TestRES001PersistLeak:
    def test_fires_on_persist_without_unpersist(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    return r.count()\n"
        ), rules=("RES001",))
        assert len(found) == 1
        assert found[0].line == 3             # primary = the persist site

    def test_fires_on_cache_leak_on_one_branch(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc, flag):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.cache()\n"
            "    if flag:\n"
            "        r.unpersist()\n"
            "        return 0\n"
            "    return r.count()\n"          # leaks on the else path
        ), rules=("RES001",))
        assert len(found) == 1

    def test_near_miss_try_finally_release(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    try:\n"
            "        return r.count()\n"
            "    finally:\n"
            "        r.unpersist()\n"
        ), rules=("RES001",))
        assert found == []

    def test_near_miss_returned_rdd_escapes(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    return r\n"                  # caller owns it now
        ), rules=("RES001",))
        assert found == []

    def test_near_miss_attribute_stored_rdd_escapes(self, tmp_path):
        found = scan(tmp_path, (
            "def f(self, sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    self.hot = r\n"              # outlives the function
        ), rules=("RES001",))
        assert found == []

    def test_interprocedural_release_through_helper(self, tmp_path):
        found = scan(tmp_path, (
            "def drop(rdd):\n"
            "    rdd.unpersist()\n"
            "\n"
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    out = r.count()\n"
            "    drop(r)\n"
            "    return out\n"
        ), rules=("RES001",))
        assert found == []


class TestRES002HeldOnExceptionPath:
    def test_fires_on_lock_held_across_raising_call(self, tmp_path):
        found = scan(tmp_path, (
            "import threading\n"
            "def f(work):\n"
            "    mu = threading.Lock()\n"
            "    mu.acquire()\n"
            "    work()\n"
            "    mu.release()\n"
        ), rules=("RES002",))
        assert len(found) == 1
        assert found[0].line == 4             # primary = the acquire site

    def test_near_miss_try_finally_release(self, tmp_path):
        found = scan(tmp_path, (
            "import threading\n"
            "def f(work):\n"
            "    mu = threading.Lock()\n"
            "    mu.acquire()\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        mu.release()\n"
        ), rules=("RES002",))
        assert found == []

    def test_near_miss_with_lock(self, tmp_path):
        found = scan(tmp_path, (
            "import threading\n"
            "def f(work):\n"
            "    mu = threading.Lock()\n"
            "    with mu:\n"
            "        work()\n"
        ), rules=("RES002",))
        assert found == []

    def test_fires_on_context_left_running(self, tmp_path):
        found = scan(tmp_path, (
            "def f(points):\n"
            "    sc = SparkContext()\n"
            "    out = sc.parallelize(points).collect()\n"  # may raise
            "    sc.stop()\n"
            "    return out\n"
        ), rules=("RES002",))
        assert len(found) == 1
        assert "SparkContext" in found[0].message

    def test_near_miss_context_with_block(self, tmp_path):
        found = scan(tmp_path, (
            "def f(points):\n"
            "    with SparkContext() as sc:\n"
            "        return sc.parallelize(points).collect()\n"
        ), rules=("RES002",))
        assert found == []

    def test_near_miss_context_try_finally(self, tmp_path):
        found = scan(tmp_path, (
            "def f(points):\n"
            "    sc = SparkContext()\n"
            "    try:\n"
            "        return sc.parallelize(points).collect()\n"
            "    finally:\n"
            "        sc.stop()\n"
        ), rules=("RES002",))
        assert found == []

    def test_near_miss_attribute_context_not_owned(self, tmp_path):
        found = scan(tmp_path, (
            "def f(self):\n"
            "    self.sc = SparkContext()\n"   # outlives the function
            "    self.sc.parallelize([1]).collect()\n"
        ), rules=("RES002",))
        assert found == []


class TestRuleRegistration:
    def test_all_five_rules_in_catalogue(self):
        from repro.lint.rules import rule_catalogue

        catalogue = rule_catalogue()
        for rid in ("LIF001", "LIF002", "LIF003", "RES001", "RES002"):
            assert rid in catalogue

    def test_pragma_suppresses_flow_finding(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "def f():\n"
            "    sc = SparkContext()\n"
            "    sc.stop()\n"
            "    sc.parallelize([1])  # lint: allow[LIF001] seeded\n"
        )
        report = run_lint([str(path)])
        assert [f for f in report.findings if f.rule == "LIF001"] == []

    def test_findings_flow_through_run_lint(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "def f():\n"
            "    sc = SparkContext()\n"
            "    sc.stop()\n"
            "    sc.parallelize([1])\n"
        )
        report = run_lint([str(path)])
        assert any(f.rule == "LIF001" for f in report.findings)


class TestFlowStats:
    def test_stats_count_cfgs(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text("def f():\n    pass\n\ndef g(x):\n    return x\n")
        project = build_project([str(path)])
        stats = flow_stats(project)
        assert stats["functions"] == 2
        assert stats["blocks"] >= 6           # entry/exit/raise-exit each
        assert set(stats) == {"functions", "blocks", "edges", "exc_edges"}


class TestSelfScan:
    def test_src_repro_is_clean_under_flow_rules(self, src_lint_report):
        flow = [
            f for f in src_lint_report.findings
            if f.rule.startswith(("LIF", "RES"))
        ]
        assert flow == [], "\n".join(f.render() for f in flow)

    def test_no_flow_pragmas_in_src(self):
        # The self-scan must be clean *without* suppressions: any
        # lint: allow[LIF*/RES*] pragma in src/repro needs a reviewed
        # justification and a mention here.
        hits = []
        src = os.path.join(REPO_ROOT, "src", "repro")
        for root, _dirs, files in os.walk(src):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        if "lint: allow[LIF" in line or "lint: allow[RES" in line:
                            hits.append(f"{path}:{lineno}")
        assert hits == []
