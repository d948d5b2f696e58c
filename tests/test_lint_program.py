"""Whole-program analysis layer: the Program model, the suppression
audit, file discovery, and the rule catalog. Reads of the real tree
share the session's one ``package_report`` (``tests/conftest.py``)."""

import ast

from repro.analysis import all_rules
from repro.analysis.program import Program, module_name_for
from repro.analysis.registry import LintContext, run_rules
from repro.analysis.runner import discover_files

def ctx(source, path):
    return LintContext.for_source(source, path=path)


def program_of(*pairs):
    return Program([ctx(source, path) for path, source in pairs])


class TestProgramModel:
    def test_module_naming(self):
        assert (
            module_name_for(ctx("x = 1\n", "src/repro/cell/deployment.py"))
            == "repro.cell.deployment"
        )
        assert (
            module_name_for(ctx("x = 1\n", "src/repro/sim/__init__.py"))
            == "repro.sim"
        )

    def test_aliases(self):
        program = program_of(
            (
                "src/repro/cell/deployment.py",
                "from repro.sim.units import seconds as secs\n"
                "import repro.sim.engine as engine\n",
            )
        )
        info = program.modules["repro.cell.deployment"]
        assert info.aliases["secs"] == "repro.sim.units.seconds"
        assert info.aliases["engine"] == "repro.sim.engine"

    def test_origin_resolves_names_through_imports(self):
        program = program_of(
            (
                "src/repro/l2/mac.py",
                "from time import perf_counter_ns as now\n"
                "import numpy as np\n"
                "from datetime import datetime as dt\n"
                "a = now()\n"
                "b = np.random.default_rng(1)\n"
                "c = dt.now()\n"
                "d = helper.run()\n"
                "e = make()()\n",
            )
        )
        info = program.modules["repro.l2.mac"]
        calls = [
            stmt.value.func
            for stmt in info.context.tree.body
            if isinstance(stmt, ast.Assign)
        ]
        assert [info.origin(func) for func in calls] == [
            "time.perf_counter_ns",
            "numpy.random.default_rng",
            "datetime.datetime.now",
            "helper.run",  # no import binds it: kept as written
            None,  # not a name chain
        ]

    def test_whole_package_program_builds(self, package_report):
        program = package_report.program
        assert "repro.sim.engine" in program.modules
        assert "repro.cell.deployment" in program.modules


class TestStrictSuppressions:
    """SUP001: the audit runs with the rules, on every program."""

    def test_stale_line_directive_flagged(self):
        program = program_of(
            ("src/repro/sim/demo.py", "x = 1  # slinglint: disable=DET001\n")
        )
        assert [f.rule_id for f in run_rules(program)] == ["SUP001"]

    def test_used_directive_not_flagged(self):
        program = program_of(
            (
                "src/repro/sim/demo.py",
                "import time\n"
                "start = time.time()  # slinglint: disable=DET001\n",
            )
        )
        assert run_rules(program) == []

    def test_stale_file_directive_flagged(self):
        program = program_of(
            ("src/repro/sim/demo.py", "# slinglint: disable-file=DET002\nx = 1\n")
        )
        findings = run_rules(program)
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert findings[0].line == 1

    def test_suppression_counts_as_used_in_its_own_file(self):
        """A finding is filtered (and its directive counted as used)
        through the file it anchors to, and only there."""
        program = program_of(
            (
                "src/repro/apps/a.py",
                "import time\n"
                "start = time.time()  # slinglint: disable=DET001\n",
            ),
            ("src/repro/ue/b.py", "import time\nstart = time.time()\n"),
        )
        findings = run_rules(program)
        assert [(f.rule_id, f.path) for f in findings] == [
            ("DET001", "src/repro/ue/b.py"),
        ]

    def test_real_tree_passes_strict_suppressions(self, package_report):
        """Clean under the audit, and what it audits outside the linter's
        own sources is exactly the three reviewed EVT002 sites."""
        assert not [f for f in package_report.findings if f.rule_id == "SUP001"]
        modules = [
            module
            for module in package_report.program.modules.values()
            if not module.name.startswith("repro.analysis")
        ]
        assert not any(module.context.file_suppressions for module in modules)
        assert sorted(
            (module.name, rule_id)
            for module in modules
            for rule_ids in module.context.line_suppressions.values()
            for rule_id in rule_ids
        ) == [
            ("repro.apps.ping", "EVT002"),
            ("repro.apps.video", "EVT002"),
            ("repro.transport.udp", "EVT002"),
        ]


class TestDiscovery:
    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "other.py").write_text("x = 1\n")
        (tmp_path / "pkg" / ".dotfile.py").write_text("x = 1\n")
        files = discover_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]

    def test_overlapping_arguments_deduplicated(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        target = tmp_path / "pkg" / "mod.py"
        target.write_text("x = 1\n")
        files = discover_files([tmp_path, tmp_path / "pkg", target])
        assert len(files) == 1


class TestRuleCatalog:
    """The catalog table itself is generated into DESIGN §7 from
    ``rule_catalog()`` (``benchmarks/render_perf_docs.py --check``); that
    ids are unique and titled is ``test_slinglint.TestFramework``'s."""

    def test_cli_list_rules_exit_code(self, capsys):
        from repro.analysis.runner import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "SUP001" in out
        for retired in ("CKPT", "STREAM", "TIMX", "P4R"):
            assert retired not in out
        assert len(out.splitlines()) == len(all_rules()) == 7

    def test_the_retired_manifest_flag_is_a_usage_error(self, capsys):
        """There is no generated state manifest to write and no static
        stream map to check draws against any more: the flags that did
        are unrecognized arguments, exit 2."""
        from repro.analysis.runner import main

        for flag in ("--write-" + "manifest", "--sanitize"):
            assert main([flag]) == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
