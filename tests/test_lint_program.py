"""Whole-program analysis layer: the Program model, cross-file STREAM
ownership, the checkpointability inventory, the suppression audit, file
discovery, and the rule catalog. Reads of the real tree share the
session's one ``package_report`` (``tests/conftest.py``)."""

import ast
from pathlib import Path

from repro.analysis import all_rules
from repro.analysis.program import Program, module_name_for
from repro.analysis.registry import LintContext, run_rules
from repro.analysis.runner import discover_files, lint_report
from repro.analysis.state_inventory import build_inventory
from repro.analysis.streams import (
    COMPOSITION_ROOTS,
    NAMESPACES,
    namespace_head,
    ownership_map,
    stream_sites,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


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

    def test_subsystem_and_aliases(self):
        program = program_of(
            (
                "src/repro/cell/deployment.py",
                "from repro.sim.units import run_for_ns as rfn\n"
                "import repro.sim.engine as engine\n",
            )
        )
        info = program.modules["repro.cell.deployment"]
        assert info.subsystem == "cell"
        assert info.aliases["rfn"] == "repro.sim.units.run_for_ns"
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

    @staticmethod
    def _resolve_only_call(program, qualname):
        function = program.function(qualname)
        (call,) = [
            node for node in ast.walk(function.node) if isinstance(node, ast.Call)
        ]
        return program.resolve_call(
            call, program.modules[function.module], class_name=function.class_name
        ).qualname

    def test_bare_and_aliased_call_resolution(self):
        program = program_of(
            (
                "src/repro/sim/units.py",
                "def run_for_ns(target, duration_ns):\n    pass\n",
            ),
            (
                "src/repro/experiments/demo.py",
                "from repro.sim.units import run_for_ns\n"
                "def go(cell):\n"
                "    run_for_ns(cell, 5)\n",
            ),
        )
        assert (
            self._resolve_only_call(program, "repro.experiments.demo.go")
            == "repro.sim.units.run_for_ns"
        )

    def test_self_method_resolution_follows_bases(self):
        program = program_of(
            (
                "src/repro/cell/base.py",
                "class Base:\n"
                "    def helper(self):\n"
                "        pass\n",
            ),
            (
                "src/repro/cell/derived.py",
                "from repro.cell.base import Base\n"
                "class Derived(Base):\n"
                "    def run(self):\n"
                "        self.helper()\n",
            ),
        )
        assert (
            self._resolve_only_call(program, "repro.cell.derived.Derived.run")
            == "repro.cell.base.Base.helper"
        )

    def test_constructor_resolves_to_init(self):
        program = program_of(
            (
                "src/repro/apps/thing.py",
                "class Thing:\n"
                "    def __init__(self, x):\n"
                "        self.x = x\n",
            ),
            (
                "src/repro/experiments/use.py",
                "from repro.apps.thing import Thing\n"
                "def make():\n"
                "    return Thing(1)\n",
            ),
        )
        assert (
            self._resolve_only_call(program, "repro.experiments.use.make")
            == "repro.apps.thing.Thing.__init__"
        )

    def test_whole_package_program_builds(self, package_report):
        program = package_report.program
        assert "repro.sim.engine" in program.modules
        assert "repro.cell.deployment" in program.modules
        # Call resolution reaches a healthy share of program calls.
        resolved = sum(
            program.resolve_call(node, module) is not None
            for module, node in program.walk()
            if isinstance(node, ast.Call)
        )
        assert resolved > 200


class TestStreamOwnership:
    def test_namespace_head_heuristics(self):
        assert namespace_head("faults.link.fh") == "faults"
        assert namespace_head("phy3") == "phy"
        assert namespace_head("ue12.channel") == "ue"
        assert namespace_head("p4") == "p4"

    def test_declared_namespaces_cover_real_tree(self):
        heads = {ns.head for ns in NAMESPACES}
        assert {"faults", "phy", "ptp", "ue", "app", "perf", "fleet"} <= heads
        assert COMPOSITION_ROOTS == {"cell", "experiments"}

    def test_fleet_namespace_is_strict(self):
        fleet = next(ns for ns in NAMESPACES if ns.head == "fleet")
        assert fleet.strict
        assert fleet.owner == "fleet"

    def test_stream003_fleet_draw_outside_fleet_flagged(self):
        # ``fleet.*`` is strict: only the fleet subsystem may draw it.
        program = program_of(
            (
                "src/repro/ue/rogue.py",
                'def f(rng):\n    return rng.stream("fleet.tracers")\n',
            )
        )
        findings = run_rules(program)
        assert [f.rule_id for f in findings] == ["STREAM003"]

    def test_stream003_fleet_draw_inside_fleet_clean(self):
        program = program_of(
            (
                "src/repro/fleet/sampling.py",
                'def f(rng):\n    return rng.stream("fleet.tracers")\n',
            )
        )
        findings = run_rules(program)
        assert not [f for f in findings if f.rule_id == "STREAM003"]

    def test_stream004_cross_subsystem_collision(self):
        program = program_of(
            (
                "src/repro/apps/a.py",
                'def f(rng):\n    return rng.stream("app.shared")\n',
            ),
            (
                "src/repro/ue/b.py",
                'def g(rng):\n    return rng.stream("app.shared")\n',
            ),
        )
        findings = run_rules(program)
        collisions = [f for f in findings if f.rule_id == "STREAM004"]
        assert len(collisions) == 2  # one finding at each site
        assert {f.path for f in collisions} == {
            "src/repro/apps/a.py",
            "src/repro/ue/b.py",
        }

    def test_stream004_private_registry_does_not_collide(self):
        program = program_of(
            (
                "src/repro/apps/a.py",
                "from repro.sim.rng import RngRegistry\n"
                "def f():\n"
                '    return RngRegistry(seed=0).stream("app.shared")\n',
            ),
            (
                "src/repro/ue/b.py",
                'def g(rng):\n    return rng.stream("app.shared")\n',
            ),
        )
        findings = run_rules(program)
        assert not [f for f in findings if f.rule_id == "STREAM004"]

    def test_prefix_sites_collide_with_exact_names(self):
        program = program_of(
            (
                "src/repro/apps/a.py",
                "def f(rng, i):\n"
                '    return rng.stream(f"app.flow{i}")\n',
            ),
            (
                "src/repro/ue/b.py",
                'def g(rng):\n    return rng.stream("app.flow3")\n',
            ),
        )
        findings = run_rules(program)
        assert [f for f in findings if f.rule_id == "STREAM004"]

    def test_real_tree_has_no_stream_findings(self, package_report):
        assert not [
            f for f in package_report.findings if f.rule_id.startswith("STREAM")
        ]

    def test_ownership_map_of_real_tree(self, package_report):
        mapping = ownership_map(package_report.program)
        # Prefix sites are keyed with a trailing *.
        assert mapping["faults.link.*"]["owner"] == "faults"
        assert mapping["phy*"]["owner"] == "cell"
        assert mapping["app.video.*"]["owner"] == "apps"
        # The fleet tracer-sampling stream is owned by the fleet package.
        fleet_row = mapping["fleet.tracers"]
        assert fleet_row["owner"] == "fleet"
        assert [s["module"] for s in fleet_row["sites"]] == [
            "repro.fleet.population"
        ]
        # The property-generation stream stays inside the faults family.
        prop_row = mapping["faults.prop"]
        assert prop_row["owner"] == "faults"
        assert [s["module"] for s in prop_row["sites"]] == [
            "repro.faults.proptest"
        ]
        for entry in mapping.values():
            assert entry["owner"] is not None

    def test_every_real_site_is_static(self, package_report):
        for site in stream_sites(package_report.program):
            assert site.name, f"unresolvable stream name at {site.path}:{site.line}"


class TestStateInventory:
    def test_inventory_is_deterministic(self, package_report):
        first = build_inventory(package_report.program)
        second = build_inventory(lint_report([PACKAGE]).program)
        assert first == second

    def test_inventory_shape(self, package_report):
        inventory = build_inventory(package_report.program)
        totals = inventory["totals"]
        assert totals["unregistered"] == 0
        assert totals["checkpointable"] > 100
        assert totals["classes"] > 30
        engine = inventory["classes"]["repro.sim.engine.Simulator"]
        assert engine["subsystem"] == "sim"
        assert "now" in engine["checkpointable"]
        assert "_queue" in engine["checkpointable"]


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

    def test_program_rule_suppression_counts_as_used(self):
        """A cross-file finding is filtered (and its directive counted as
        used) through the file it anchors to."""
        program = program_of(
            (
                "src/repro/apps/a.py",
                "def f(rng):\n"
                '    return rng.stream("app.shared")  # slinglint: disable=STREAM004\n',
            ),
            (
                "src/repro/ue/b.py",
                'def g(rng):\n    return rng.stream("app.shared")\n',
            ),
        )
        findings = run_rules(program)
        assert [(f.rule_id, f.path) for f in findings] == [
            ("STREAM003", "src/repro/ue/b.py"),
            ("STREAM004", "src/repro/ue/b.py"),
        ]

    def test_real_tree_passes_strict_suppressions(self, package_report):
        """Clean under the audit, and what it audits outside the linter's
        own sources is exactly the three reviewed EVT002 sites."""
        assert not [f for f in package_report.findings if f.rule_id == "SUP001"]
        modules = [
            module
            for module in package_report.program.modules.values()
            if module.subsystem != "analysis"
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
        assert "STREAM001" in out and "CKPT001" in out
        assert len(out.splitlines()) == len(all_rules())
