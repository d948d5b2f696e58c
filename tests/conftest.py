"""Shared fixtures for the tier-1 suite."""

import inspect
import textwrap
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.analysis.runner import lint_report

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="session")
def package_report():
    """One whole-tree lint pass (``src/repro``, ~4 s) serving every
    read-only assertion about the real tree: findings, program model,
    stream map, state inventory and the sanitizer's static half."""
    return lint_report([PACKAGE])


def mutated(function, old: str, new: str):
    """``function`` recompiled with the first ``old`` in its source replaced
    (the one-line mutants the differential suites apply to live code)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, f"{function.__qualname__} no longer contains {old!r}"
    namespace: Dict[str, Any] = {}
    exec(source.replace(old, new, 1), function.__globals__, namespace)
    return namespace[function.__name__]
