"""SARIF 2.1.0 emission: structural contract always, full JSON-schema
validation when ``jsonschema`` is installed (the committed schema file
is a faithful subset of the OASIS sarif-schema-2.1.0 definitions).
"""

import json
import os
import textwrap

import pytest

from repro.cli import main
from repro.lint import rule_catalogue, run_lint, to_sarif
from repro.lint.sarif import FINGERPRINT_KEY, SARIF_SCHEMA, TOOL_NAME

VIOLATIONS = textwrap.dedent(
    """
    import time

    def job(rdd):
        return rdd.map(lambda x: (x, time.time())).collect()

    class LocalExpand:
        def run(self, rdd):
            return rdd.group_by_key()
    """
)

FLOW_VIOLATION = textwrap.dedent(
    """
    def use_after_stop():
        sc = SparkContext()
        sc.stop()
        sc.parallelize([1])
    """
)

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "sarif-schema-subset.json")


@pytest.fixture()
def sarif_log(tmp_path):
    mod = tmp_path / "bad.py"
    mod.write_text(VIOLATIONS)
    report = run_lint([str(mod)])
    assert report.findings, "fixture must produce findings"
    return to_sarif(report), report


class TestStructure:
    def test_envelope(self, sarif_log):
        log, _report = sarif_log
        assert log["version"] == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == TOOL_NAME

    def test_results_mirror_findings(self, sarif_log):
        log, report = sarif_log
        results = log["runs"][0]["results"]
        assert len(results) == len(report.findings)
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        # Descriptors carry the *whole* catalogue (the parity contract),
        # fired or not, and every fired rule is among them.
        assert rule_ids == sorted(rule_catalogue())
        assert {f.rule for f in report.findings} <= set(rule_ids)
        for result, finding in zip(results, report.findings):
            assert result["ruleId"] == finding.rule
            assert rule_ids[result["ruleIndex"]] == finding.rule
            assert result["message"]["text"] == finding.message
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] == finding.line >= 1
            assert region["startColumn"] == finding.col + 1 >= 1
            assert result["partialFingerprints"][FINGERPRINT_KEY] == \
                finding.fingerprint

    def test_baseline_state(self, tmp_path):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATIONS)
        from repro.lint import write_baseline

        base = str(tmp_path / "base.json")
        first = run_lint([str(mod)])
        write_baseline(base, first.findings[:1])
        report = run_lint([str(mod)], baseline_path=base)
        log = to_sarif(report)
        states = [r["baselineState"] for r in log["runs"][0]["results"]]
        assert "unchanged" in states and "new" in states

    def test_cli_emits_parseable_sarif(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATIONS)
        assert main(["lint", str(mod), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_clean_run_has_empty_results(self, tmp_path):
        mod = tmp_path / "ok.py"
        mod.write_text("def f(x):\n    return x\n")
        log = to_sarif(run_lint([str(mod)]))
        assert log["runs"][0]["results"] == []
        # Descriptors are still the full catalogue on a clean run.
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(rule_catalogue())


class TestRelatedLocations:
    def _flow_log(self, tmp_path):
        mod = tmp_path / "flow.py"
        mod.write_text(FLOW_VIOLATION)
        report = run_lint([str(mod)])
        finding = next(f for f in report.findings if f.rule == "LIF001")
        assert finding.related, "flow finding must carry related sites"
        return to_sarif(report), finding

    def test_flow_finding_carries_related_locations(self, tmp_path):
        log, finding = self._flow_log(tmp_path)
        result = next(
            r for r in log["runs"][0]["results"] if r["ruleId"] == "LIF001"
        )
        related = result["relatedLocations"]
        assert len(related) == len(finding.related)
        loc = related[0]["physicalLocation"]
        assert loc["region"]["startLine"] == finding.related[0][1]
        assert related[0]["message"]["text"] == finding.related[0][2]

    def test_non_flow_results_omit_related_locations(self, sarif_log):
        log, _report = sarif_log
        for result in log["runs"][0]["results"]:
            assert "relatedLocations" not in result

    def test_flow_sarif_validates_with_related_locations(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA_PATH, encoding="utf-8") as f:
            schema = json.load(f)
        log, _finding = self._flow_log(tmp_path)
        jsonschema.validate(instance=log, schema=schema)


class TestSchemaValidation:
    def test_validates_against_sarif_2_1_0(self, sarif_log):
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA_PATH, encoding="utf-8") as f:
            schema = json.load(f)
        log, _report = sarif_log
        jsonschema.validate(instance=log, schema=schema)

    def test_self_scan_sarif_validates(self, src_lint_report):
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA_PATH, encoding="utf-8") as f:
            schema = json.load(f)
        log = to_sarif(src_lint_report)
        jsonschema.validate(instance=log, schema=schema)
