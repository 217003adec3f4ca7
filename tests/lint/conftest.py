"""Shared lint fixtures."""

import pytest

from repro.lint import run_lint


@pytest.fixture(scope="session")
def src_lint_report():
    """One whole-source scan, shared by the self-scan tests that only
    read its report (tests that seed a copied tree scan their own)."""
    return run_lint(["src"])
