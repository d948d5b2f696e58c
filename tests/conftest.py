"""Shared fixtures for the tier-1 suite."""

from pathlib import Path

import pytest

from repro.analysis.runner import lint_report

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="session")
def package_report():
    """One whole-tree lint pass (``src/repro``, ~4 s) serving every
    read-only assertion about the real tree: findings, program model,
    stream map, state inventory and the sanitizer's static half."""
    return lint_report([PACKAGE])
