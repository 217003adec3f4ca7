"""Static plan-contract checking: PLN001 (incomplete/unknown/duplicate)
and PLN002 (ordering cycle), read straight off STAGE_MANIFEST literals
without importing the plans module.
"""

import textwrap

import pytest

from repro.lint import build_project, run_lint
from repro.lint.plans import (
    check_plan_contracts,
    manifests,
    shuffle_free_stage_classes,
    stage_contracts,
)

STAGES = """
    class Load:
        name = "Load"
        provides = ("points",)

        def run(self, state):
            return state

    class Index:
        name = "Index"
        requires = ("points",)
        provides = ("tree",)

        def run(self, state):
            return state

    class Expand:
        name = "Expand"
        requires = ("tree",)
        provides = ("labels",)

        def run(self, state):
            return state
"""


@pytest.fixture()
def project_of(tmp_path):
    def _make(manifest_source: str, stages_source: str = STAGES):
        pkg = tmp_path / "pkg"
        pkg.mkdir(exist_ok=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "stages.py").write_text(textwrap.dedent(stages_source))
        (pkg / "plans.py").write_text(
            "from .stages import Load, Index, Expand\n"
            + textwrap.dedent(manifest_source)
        )
        return build_project(
            [str(pkg / "__init__.py"), str(pkg / "stages.py"), str(pkg / "plans.py")]
        )

    return _make


class TestManifestParsing:
    def test_manifest_and_contracts_read_off_ast(self, project_of):
        project = project_of(
            """
            STAGE_MANIFEST = {"good": ("Load", "Index", "Expand")}
            SHUFFLE_FREE_PLANS = ("good",)
            """
        )
        (manifest,) = manifests(project)
        assert manifest.plans == {
            "good": [(c, manifest.plans["good"][i][1])
                     for i, c in enumerate(("Load", "Index", "Expand"))]
        }
        assert manifest.shuffle_free == ("good",)
        contracts = stage_contracts(project)
        assert contracts["Index"].requires == ("points",)
        assert contracts["Index"].provides == ("tree",)
        assert shuffle_free_stage_classes(project) == {"Load", "Index", "Expand"}

    def test_complete_chain_is_clean(self, project_of):
        project = project_of(
            """
            STAGE_MANIFEST = {"good": ("Load", "Index", "Expand")}
            """
        )
        assert check_plan_contracts(project) == []


class TestPlanContractRules:
    def test_missing_requirement_is_pln001(self, project_of):
        project = project_of(
            """
            STAGE_MANIFEST = {"broken": ("Load", "Expand")}
            """
        )
        findings = check_plan_contracts(project)
        assert [f.rule for f in findings] == ["PLN001"]
        assert "'tree'" in findings[0].message
        assert findings[0].symbol == "plan:broken"

    def test_unknown_stage_class_is_pln001(self, project_of):
        project = project_of(
            """
            STAGE_MANIFEST = {"broken": ("Load", "Zed")}
            """
        )
        findings = check_plan_contracts(project)
        assert any(f.rule == "PLN001" and "'Zed'" in f.message for f in findings)

    def test_provided_later_is_pln002(self, project_of):
        # Expand before Index: 'tree' exists, but only downstream.
        project = project_of(
            """
            STAGE_MANIFEST = {"cyclic": ("Load", "Expand", "Index")}
            """
        )
        findings = check_plan_contracts(project)
        assert any(
            f.rule == "PLN002" and "later stage" in f.message for f in findings
        )

    def test_duplicate_runtime_name_is_pln001(self, project_of):
        project = project_of(
            """
            STAGE_MANIFEST = {"dup": ("Load", "Load2")}
            """,
            stages_source=STAGES + """
    class Load2:
        name = "Load"
        provides = ("points",)

        def run(self, state):
            return state
""",
        )
        findings = check_plan_contracts(project)
        assert any(
            f.rule == "PLN001" and "collide" in f.message for f in findings
        )

    def test_rules_run_via_lint(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "plans.py").write_text(textwrap.dedent("""
            class Load:
                provides = ("points",)

            class Expand:
                requires = ("tree",)
                provides = ("labels",)

            STAGE_MANIFEST = {"broken": ("Load", "Expand")}
            """))
        report = run_lint([str(pkg)])
        assert any(f.rule == "PLN001" for f in report.findings)


class TestRepoManifest:
    def test_shipped_plans_are_contract_clean(self):
        project = build_project(
            ["src/repro/pipeline/plans.py", "src/repro/pipeline/stages.py",
             "src/repro/pipeline/stages_cells.py",
             "src/repro/pipeline/stages_naive.py",
             "src/repro/pipeline/stages_mapreduce.py"]
        )
        assert check_plan_contracts(project) == []
        assert shuffle_free_stage_classes(project) >= {
            "LoadPoints", "LocalExpand", "CollectPartials", "MergePartials",
            "CellPartition", "LocalIndexExpand",
        }
