"""Structural guard: ``cell/deployment.py`` is the one wiring site.

Every composition root in ``src/repro`` — the fleet composer, the chaos /
soak probe harness, the experiments — composes
``build_slingshot_cell`` / ``build_baseline_cell`` and never constructs a
vRAN component itself, so a fault plan, a checkpoint, a telemetry read
or a fleet reaches every deployment shape there is. A bare ``Switch`` /
``Link`` is not a component and is not covered.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
WIRING_SITE = "cell/deployment.py"
COMPONENTS = frozenset(
    {
        "PhyProcess",
        "PhySideOrion",
        "L2SideOrion",
        "L2Process",
        "RadioUnit",
        "FronthaulMiddlebox",
    }
)


def _instantiations(path: Path) -> set:
    """Component classes a module calls, by bare or dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in COMPONENTS:
                found.add(name)
    return found


def test_only_the_deployment_module_instantiates_components():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _instantiations(path)
        if found:
            sites[path.relative_to(SRC).as_posix()] = found
    # The guard sees what it guards: the wiring site builds all six.
    assert sites.pop(WIRING_SITE) == COMPONENTS
    assert sites == {}, (
        "components instantiated outside cell/deployment.py "
        f"(compose build_slingshot_cell instead): {sites}"
    )


def test_nothing_simulated_imports_telemetry():
    """Components count in their own ``Stats``; telemetry reads them. An
    import of ``repro.telemetry`` outside the package itself (and the
    chaos campaign, tooling that reads every finished run) is a push
    site growing back."""
    importers = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("telemetry/") or relative == "faults/campaign.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [
                    node.module,
                    *(f"{node.module}.{alias.name}" for alias in node.names),
                ]
            if any(name.startswith("repro.telemetry") for name in names):
                importers[relative] = node.lineno
    assert importers == {}


def test_the_readers_load_no_campaign_tooling():
    """``bench/`` imports ``repro.telemetry.timeline`` at the end of a
    measured run, on top of its memory high-water mark: the package's
    import must stay what the timeline needs, not the campaign harness
    (argparse tables, the process pool) — 3.5 MB of peak RSS when it did."""
    code = (
        "import sys, repro.telemetry.timeline\n"
        "tooling = ('repro.harness', 'repro.parallel', 'repro.faults.campaign')\n"
        "loaded = [m for m in sys.modules if m.startswith(tooling)]\n"
        "sys.exit(str(loaded) if loaded else 0)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


#: Trees whose callers count: a field set only by tests or examples is a
#: constant wearing a config field.
CALLER_TREES = ("src", "bench", "benchmarks")
#: The race detector's test instrument: tests alone set it, on purpose.
TEST_ONLY_FIELDS = frozenset({"tie_shuffle_seed"})


def _config_fields() -> dict:
    """``{class: {field: default expression or None}}`` of every
    ``*Config`` dataclass under ``src/repro``."""
    classes = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
                continue
            decorators = {
                getattr(d, "id", None) or getattr(getattr(d, "func", None), "id", None)
                for d in node.decorator_list
            }
            if "dataclass" in decorators:
                classes[node.name] = {
                    stmt.target.id: stmt.value
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                }
    return classes


def _set_fields(classes: dict) -> set:
    """``(class, field)`` pairs a caller in :data:`CALLER_TREES` sets to
    something other than the field's default: a constructor argument
    (keyword, positional, or a ``**dict(...)`` built in the same
    function), a ``replace(...)`` keyword, or an assignment to an
    attribute of a ``*config`` object."""
    found = set()
    root = SRC.parents[1]
    for tree_name in CALLER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            constants = {
                target.id: node.value
                for node in module.body
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name)
            }

            def differs(cls, name, value):
                default = classes[cls].get(name)
                if isinstance(value, ast.Name):
                    value = constants.get(value.id, value)
                return default is None or ast.dump(value) != ast.dump(default)

            for scope in ast.walk(module):
                if not isinstance(scope, (ast.Module, ast.FunctionDef)):
                    continue
                built = {}
                for node in ast.walk(scope):
                    if (
                        isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "id", None) == "dict"
                    ):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                built[target.id] = node.value.keywords
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = getattr(func, "id", None) or getattr(func, "attr", None)
                        if name in classes:
                            pairs = list(zip(classes[name], node.args))
                            for keyword in node.keywords:
                                if keyword.arg is not None:
                                    pairs.append((keyword.arg, keyword.value))
                                elif isinstance(keyword.value, ast.Name):
                                    pairs += [
                                        (k.arg, k.value)
                                        for k in built.get(keyword.value.id, [])
                                    ]
                            found |= {
                                (name, field)
                                for field, value in pairs
                                if differs(name, field, value)
                            }
                        elif name == "replace":
                            found |= {
                                (cls, keyword.arg)
                                for keyword in node.keywords
                                for cls, fields in classes.items()
                                if keyword.arg in fields
                            }
                    elif isinstance(node, ast.Assign):
                        for target in node.targets:
                            owner = getattr(target, "value", None)
                            owner_name = getattr(owner, "id", None) or getattr(
                                owner, "attr", ""
                            )
                            if isinstance(target, ast.Attribute) and (
                                owner_name.endswith("config")
                            ):
                                found |= {
                                    (cls, target.attr)
                                    for cls, fields in classes.items()
                                    if target.attr in fields
                                }
    return found


def test_every_config_field_is_set_by_a_non_test_caller():
    """A config field exists only where non-test callers need different
    values (DESIGN §17): a field that ``src/``, ``bench/`` and
    ``benchmarks/`` never set off its default is a model parameter, a
    module constant beside the code that reads it."""
    classes = _config_fields()
    assert {"CellConfig", "FleetConfig", "PhyConfig"} <= set(classes)
    set_fields = _set_fields(classes)
    unset = sorted(
        f"{cls}.{field}"
        for cls, fields in classes.items()
        for field in fields
        if (cls, field) not in set_fields and field not in TEST_ONLY_FIELDS
    )
    assert unset == [], f"config fields no non-test caller sets: {unset}"
