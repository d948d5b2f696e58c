"""Tier-1 gate: the tree lints clean (suppression audit included, always
on), undecodable input is one stderr line, and a JSON report is JSON.
Every read of the real tree shares the session's one ``package_report``
(``tests/conftest.py``)."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import format_findings

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


class TestTreeIsClean:
    def test_package_lints_clean(self, package_report):
        findings = package_report.findings
        assert findings == [], "\n" + format_findings(findings)

    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nstart = time.time()\n")
        assert cli.main(["lint", str(dirty)]) == 1
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cli.main(["lint", str(clean)]) == 0
        capsys.readouterr()
        # Input that cannot be read as Python source: one line, exit 2.
        latin1 = tmp_path / "latin1.py"
        latin1.write_bytes(b"name = '\xe9'\n")
        nul = tmp_path / "nul.py"
        nul.write_bytes(b"x = 1\x00\n")
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        for bad in (latin1, nul, broken, tmp_path / "missing.py"):
            assert cli.main(["lint", str(clean), str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("repro lint: ") and bad.name in line

    def test_cli_reports_finding_location(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert cli.main(["lint", str(dirty), "--format", "json"]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "dirty.py" in out

    def test_json_report_is_one_json_document(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nimport time\nt = time.time()\n")
        assert cli.main(["lint", str(dirty), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(f["rule_id"], f["line"]) for f in report] == [
            ("DET002", 1),
            ("DET001", 3),
        ]


class TestLintSmoke:
    """The analyzer's own health: suppression audit and (when available)
    strict typing."""

    def test_strict_suppressions_clean(self, package_report, tmp_path, capsys):
        """The audit is unconditional: no flag turns it on or off."""
        assert not [f for f in package_report.findings if f.rule_id == "SUP001"]
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # slinglint: disable=DET001\n")
        assert cli.main(["lint", str(stale)]) == 1
        assert "SUP001" in capsys.readouterr().out
        assert cli.main(["lint", "--strict-suppressions", str(stale)]) == 2
        capsys.readouterr()

    def test_mypy_strict_on_analysis_package(self):
        """Gated on availability: the container may not ship mypy."""
        api = pytest.importorskip("mypy.api")
        out, err, code = api.run(
            ["--strict", "--no-error-summary", str(PACKAGE / "analysis")]
        )
        assert code == 0, out or err
