"""Rule-level tests: each lint rule fires on its seeded violation.

Each test writes a small module embodying exactly one violation class
and asserts the analyzer pins it to the right rule — plus negative
cases asserting intentional patterns stay clean.
"""

import textwrap

import pytest

from repro.lint import lint_file


@pytest.fixture()
def lint_source(tmp_path):
    """Write a module and lint it, returning findings."""

    def _lint(source: str, name: str = "mod.py"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_file(str(path))

    return _lint


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestCapture:
    def test_spark_context_captured(self, lint_source):
        findings = lint_source(
            """
            from repro.engine import SparkContext

            def job():
                sc = SparkContext("local")
                data = sc.parallelize(range(10))

                def work(x):
                    return sc.broadcast(x)

                return data.map(work).collect()
            """
        )
        assert any(f.rule == "CAP001" and "sc" in f.message for f in findings)

    def test_rdd_captured_in_lambda(self, lint_source):
        findings = lint_source(
            """
            def job(sc):
                rdd = sc.parallelize(range(10))
                other = sc.parallelize(range(10))
                return rdd.map(lambda x: other.count()).collect()
            """
        )
        assert "CAP001" in rules_of(findings)

    def test_broadcast_capture_is_fine(self, lint_source):
        findings = lint_source(
            """
            def job(sc):
                b = sc.broadcast([1, 2, 3])
                return sc.parallelize(range(3)).map(lambda i: b.value[i]).collect()
            """
        )
        assert findings == []

    def test_plain_params_are_fine(self, lint_source):
        findings = lint_source(
            """
            def job(sc, eps, minpts):
                return sc.parallelize(range(9)).filter(
                    lambda x: x > eps and x < minpts
                ).collect()
            """
        )
        assert findings == []


class TestPicklability:
    def test_open_file_captured(self, lint_source):
        findings = lint_source(
            """
            def job(rdd):
                f = open("/tmp/out.txt", "w")
                rdd.foreach(lambda x: f.write(str(x)))
            """
        )
        assert "PCK001" in rules_of(findings)

    def test_lock_captured(self, lint_source):
        findings = lint_source(
            """
            import threading

            def job(rdd):
                mu = threading.Lock()

                def work(x):
                    with mu:
                        return x
                return rdd.map(work).collect()
            """
        )
        assert "PCK001" in rules_of(findings)


class TestDeterminism:
    def test_wall_clock_in_task(self, lint_source):
        findings = lint_source(
            """
            import time

            def job(rdd):
                return rdd.map(lambda x: (x, time.time())).collect()
            """
        )
        assert any(f.rule == "DET001" and "time.time" in f.message for f in findings)

    def test_unseeded_module_random(self, lint_source):
        findings = lint_source(
            """
            import random

            def job(rdd):
                return rdd.map(lambda x: x * random.random()).collect()
            """
        )
        assert "DET001" in rules_of(findings)

    def test_seeded_rng_is_fine(self, lint_source):
        findings = lint_source(
            """
            import random

            def job(rdd):
                def work(pid, it):
                    rng = random.Random(pid)
                    return [rng.random() for _ in it]
                return rdd.map_partitions_with_index(work)
            """
        )
        assert findings == []

    def test_zero_arg_rng_ctor_flagged(self, lint_source):
        findings = lint_source(
            """
            import random

            def job(rdd):
                def work(pid, it):
                    rng = random.Random()
                    return [rng.random() for _ in it]
                return rdd.map_partitions_with_index(work)
            """
        )
        assert "DET001" in rules_of(findings)

    def test_numpy_legacy_random_flagged(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def job(rdd):
                return rdd.map(lambda x: x + np.random.rand()).collect()
            """
        )
        assert "DET001" in rules_of(findings)

    def test_transitive_reachability(self, lint_source):
        findings = lint_source(
            """
            import time

            def helper(x):
                return x * time.time()

            def job(rdd):
                return rdd.map(lambda x: helper(x)).collect()
            """
        )
        assert "DET001" in rules_of(findings)

    def test_call_returned_rdd_chain(self, lint_source):
        # Regression: the receiver is an RDD *returned by a call* — the
        # chain starts at a user-defined factory, not at sc directly.
        findings = lint_source(
            """
            import time

            def make(sc):
                return sc.parallelize(range(10))

            def job(sc):
                return make(sc).map(lambda x: (x, time.time())).collect()
            """
        )
        assert "DET001" in rules_of(findings)

    def test_driver_side_clock_is_fine(self, lint_source):
        # Wall clocks outside any task closure are driver-side timing.
        findings = lint_source(
            """
            import time

            def job(rdd):
                t0 = time.time()
                out = rdd.map(lambda x: x + 1).collect()
                return out, time.time() - t0
            """
        )
        assert findings == []


class TestShuffleFree:
    # SHF001 is no longer a path allowlist: it fires on anything the
    # call graph proves reachable from a paper-pipeline entry point
    # (frontends + shuffle-free plan stages), wherever it lives.

    def test_wide_api_reachable_from_entry(self, lint_source):
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    return rdd.reduce_by_key(lambda a, b: a + b)
            """,
            name="anywhere/stagelike.py",
        )
        assert any(f.rule == "SHF001" and "reduce_by_key" in f.message
                   for f in findings)

    def test_shuffle_import_in_entry_module(self, lint_source):
        findings = lint_source(
            """
            from repro.engine.shuffle import ShuffleManager

            class SparkDBSCAN:
                def fit(self, points):
                    return points
            """,
            name="anywhere/frontend.py",
        )
        assert "SHF001" in rules_of(findings)

    def test_wide_api_unreachable_is_fine(self, lint_source):
        # No entry point reaches this function: outside the contract.
        findings = lint_source(
            """
            def wordcount(rdd):
                return rdd.reduce_by_key(lambda a, b: a + b).collect()
            """,
            name="analysis/wordcount.py",
        )
        assert "SHF001" not in rules_of(findings)


class TestPragma:
    def test_same_line_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            import time

            def job(rdd):
                return rdd.map(lambda x: (x, time.time())).collect()  # lint: allow[DET001]
            """
        )
        assert findings == []

    def test_line_above_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            import time

            def job(rdd):
                # lint: allow[DET001] injected timestamp, test-only
                return rdd.map(lambda x: (x, time.time())).collect()
            """
        )
        assert findings == []

    def test_module_level_statement_span(self, lint_source):
        # A multi-line module-level statement may carry the pragma on
        # any of its lines — here the finding is on the import's first
        # line, the pragma on its closing one.
        findings = lint_source(
            """
            from repro.engine.shuffle import (
                ShuffleManager,
            )  # lint: allow[SHF001] referenced by offline tooling only

            class SparkDBSCAN:
                def fit(self, points):
                    return points
            """,
            name="front.py",
        )
        assert "SHF001" not in rules_of(findings)

    def test_pragma_inside_class_body_does_not_leak(self, lint_source):
        # Compound statements are not pragma spans: an allow buried in
        # a class must not suppress findings elsewhere in the class.
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    x = 1  # lint: allow[SHF001] unrelated line
                    y = x + 1
                    return rdd.group_by_key()
            """,
            name="stage.py",
        )
        assert "SHF001" in rules_of(findings)

    def test_pragma_is_rule_specific(self, lint_source):
        findings = lint_source(
            """
            import time

            def job(rdd):
                return rdd.map(lambda x: (x, time.time())).collect()  # lint: allow[CAP001]
            """
        )
        assert "DET001" in rules_of(findings)


class TestTelemetryAllowances:
    """The telemetry clock-anchor pragmas are scoped, not blanket.

    `repro.obs` reads wall clocks for clock-rebase anchors under
    ``# lint: allow[DET001]`` pragmas (and the self-scan below keeps the
    shipped code clean).  These tests pin that the allowance is
    line-scoped: the same pattern without the pragma — nondeterminism
    feeding *task output* — still fires.
    """

    def test_anchor_pragma_does_not_shield_neighbouring_clock_reads(
        self, lint_source
    ):
        findings = lint_source(
            """
            import time

            def job(rdd):
                def work(pid, it):
                    anchor = time.time()  # lint: allow[DET001] clock-rebase anchor
                    values = list(it)
                    return [(x, time.time() - anchor) for x in values]
                return rdd.map_partitions_with_index(work)
            """
        )
        # The anchor line is allowed (a pragma covers its own line and
        # the line below); the un-pragma'd read in the comprehension —
        # which lands in task output — still fires.
        assert any(
            f.rule == "DET001" and "time.time" in f.message for f in findings
        )

    def test_telemetry_style_anchor_alone_is_clean(self, lint_source):
        findings = lint_source(
            """
            import time

            def job(rdd):
                def work(pid, it):
                    t0 = time.time()  # lint: allow[DET001] span timing, not task output
                    out = [x * 2 for x in it]
                    return out
                return rdd.map_partitions_with_index(work)
            """
        )
        assert "DET001" not in rules_of(findings)


class TestSelfScan:
    def test_repo_src_is_clean(self, src_lint_report):
        """The shipped code must satisfy its own analyzer."""
        report = src_lint_report
        assert report.findings == [], "\n" + report.render_text()
        assert report.files_scanned > 50

    def test_obs_telemetry_modules_scan_clean(self):
        """The distributed-telemetry modules (which legitimately read
        clocks) are covered by scoped pragmas, not exclusions."""
        from repro.lint import run_lint

        report = run_lint(["src/repro/obs"], baseline_path=None)
        assert report.findings == [], "\n" + report.render_text()
