"""Tier-1 gate: the tree lints clean (suppression audit included, always
on), undecodable input is one stderr line, the stream sanitizer sees no
draw the static map misses, and the P4 pass expansion recovers the
fronthaul middlebox's shape inside the per-pass register-access bound.
Every read of the real tree shares the session's one ``package_report``
(``tests/conftest.py``)."""

from pathlib import Path

import pytest

from repro import cli
from repro.analysis import format_findings, lint_source
from repro.analysis.p4budget import (
    MAX_REGISTER_ACCESSES_PER_PASS,
    summarize_program,
)

import ast

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


@pytest.mark.slow
class TestStreamSanitizer:
    def test_golden_run_has_zero_divergence(self, package_report):
        """Every stream drawn during the sanitizer's workload (two seed-1
        chaos branches and a 0.5 s fig9 failover) must map to a static
        site the STREAM rules audited."""
        from repro.analysis.sanitize import run_sanitizer

        result = run_sanitizer(package_report.program)
        assert result.divergences == [], result.summary()
        assert len(result.draws) >= 10
        assert result.covered_sites >= 5


class TestSection86BudgetCheck:
    """The per-pass register-access bound a Tofino-class pipeline puts on
    the §5 middlebox (P4R003). The §8.6 resource percentages are
    ``tests/test_p4.py``'s."""

    def test_fh_middlebox_fits_at_256_rus(self):
        source = (PACKAGE / "core" / "fh_middlebox.py").read_text()
        findings = lint_source(source, path="src/repro/core/fh_middlebox.py")
        assert findings == [], "\n" + format_findings(findings)

    def test_recovered_program_shape(self):
        source = (PACKAGE / "core" / "fh_middlebox.py").read_text()
        summary = summarize_program(ast.parse(source))
        assert summary.tables == {
            "ru_id_directory",
            "phy_id_directory",
            "phy_address_directory",
            "ru_port_directory",
        }
        assert summary.registers == {
            "ru_to_phy",
            "mig_valid",
            "mig_slot",
            "mig_dest",
            "prev_phy",
            "last_boundary",
        }
        assert any(summary.pass_accesses.values())
        for register in summary.registers:
            assert summary.max_accesses(register) <= MAX_REGISTER_ACCESSES_PER_PASS
