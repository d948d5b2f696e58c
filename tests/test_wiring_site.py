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
import re
import subprocess
import sys
from collections import Counter

from tests.tree_reader import SCHEDULING_CALLS, SRC, callee, modules, parsed

WIRING_SITE = "cell.deployment"
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


def test_only_the_deployment_module_instantiates_components():
    """Every module's component constructions, by bare or dotted name:
    only the wiring site has any."""
    sites = {}
    for module, tree in modules():
        found = {
            callee(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and callee(node) in COMPONENTS
        }
        if found:
            sites[module] = found
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
    for module, tree in modules():
        if module.startswith("telemetry.") or module == "faults.campaign":
            continue
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [
                    node.module,
                    *(f"{node.module}.{alias.name}" for alias in node.names),
                ]
            if any(name.startswith("repro.telemetry") for name in names):
                importers[module] = node.lineno
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


def _caller_modules(trees: tuple = CALLER_TREES) -> tuple:
    """``(tree name, parsed module)`` for every module under ``trees``."""
    root = SRC.parents[1]
    return tuple(
        (tree_name, parsed(path))
        for tree_name in trees
        for path in sorted((root / tree_name).rglob("*.py"))
    )


def _calls(tree: ast.AST):
    """Every call in ``tree``, plus the call a scheduling call defers: its
    callback applied to the arguments after it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
            if callee(node) in SCHEDULING_CALLS and len(node.args) >= 2:
                yield ast.Call(func=node.args[1], args=node.args[2:], keywords=[])


def _config_fields() -> dict:
    """``{class: {field: default expression or None}}`` of every
    ``*Config`` dataclass under ``src/repro``."""
    classes = {}
    for _, tree in modules():
        for node in ast.walk(tree):
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
    for _, module in _caller_modules():
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
                    name = callee(node)
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


#: Defaulted parameters no non-test caller passes, kept on purpose: the
#: qualified name and why. Anything else is a module constant.
KEPT_PARAMETERS = {
    # Identity: names and seeds.
    "apps.ping.PingClient.name": "identity: the process name",
    "apps.video.VideoSender.name": "identity: the process name",
    "core.orion.L2SideOrion.name": "identity: the process name",
    "corenet.core.CoreNetwork.name": "identity: the process name",
    "corenet.server.AppServer.name": "identity: the process name",
    "transport.tcp.TcpSender.name": "identity: the process name",
    "transport.tcp.TcpReceiver.name": "identity: the process name",
    "transport.udp.UdpSender.name": "identity: the process name",
    "experiments.ablations.tti_alignment.seed": "identity: the run's seed",
    "experiments.ablations.detector_timeout_sweep.seed": "identity: the run's seed",
    "experiments.ablations.software_vs_switch_middlebox.seed": "identity: the run's seed",
    "experiments.ablations.null_vs_duplicate_fapi.seed": "identity: the run's seed",
    "faults.proptest.generate_cases.master_seed": "identity: the case universe's seed",
    # Collaborators wired in.
    "cell.deployment.build_slingshot_cell.placement": "collaborator: builds the crossed pod",
    "faults.campaign.build_probe_harness.plan": "collaborator: the fault plan armed "
    "at build, the cold reference that forking is checked against",
    "fleet.composer.build_fleet.sim": "collaborator: the engine (the legacy-engine "
    "differential)",
    "phy.codec.PhyCodec.code": "collaborator: the LDPC code the chain fuzz varies",
    # Executor arguments, reached through Verb.execute.
    "harness.branch_sweep.jobs": "executor: worker count",
    "harness.branch_sweep.progress": "executor: result stream",
    # Set by a caller the name match cannot see.
    "phy.ldpc.get_code.n": "construction key: LdpcCode.__reduce__ restores through it",
    "phy.ldpc.get_code.dv": "construction key: LdpcCode.__reduce__ restores through it",
    "phy.ldpc.get_code.dc": "construction key: LdpcCode.__reduce__ restores through it",
    "phy.ldpc.get_code.seed": "construction key: LdpcCode.__reduce__ restores through it",
    "phy.ldpc.get_code.normalization": "construction key: LdpcCode.__reduce__ "
    "restores through it",
    # Fields of a message, not settings.
    "fronthaul.ecpri.encode_header.symbol": "wire field decode_header returns",
    "fronthaul.ecpri.encode_header.section_type": "wire field decode_header returns",
}


def _defaulted_parameters() -> dict:
    """``{qualified name: (callee name, positional names, default
    expression)}`` for every defaulted parameter of a public module
    function, constructor or method under ``src/repro``."""
    found = {}
    for module, tree in modules():
        callables = [(node.name, node.name, node) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for item in cls.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        callables.append((cls.name, cls.name, item))
                    else:
                        callables.append((item.name, f"{cls.name}.{item.name}", item))
        for callee, qualified, function in callables:
            if callee.startswith("_"):
                continue
            args = function.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = list(
                zip(positional[len(positional) - len(args.defaults):], args.defaults)
            )
            defaulted += [
                (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for name, default in defaulted:
                found[f"{module}.{qualified}.{name}"] = (callee, positional, default)
    return found


def _passes(call: ast.Call, name: str, positional: list, default=None) -> bool:
    """Whether ``call`` may set parameter ``name`` off its ``default``: by
    keyword, by position, or through ``*args`` / ``**kwargs``. Passing
    the default's own literal sets nothing."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    value = next((k.value for k in call.keywords if k.arg == name), None)
    if value is None and name in positional:
        index = positional.index(name)
        value = call.args[index] if index < len(call.args) else None
    if value is None:
        return any(keyword.arg is None for keyword in call.keywords)
    return not (
        isinstance(default, ast.Constant) and ast.dump(value) == ast.dump(default)
    )


def _calls_by_callee() -> dict:
    """Every call under :data:`CALLER_TREES`, by callee name."""
    calls = {}
    for _, module in _caller_modules():
        for call in _calls(module):
            calls.setdefault(callee(call), []).append(call)
    return calls


def test_every_parameter_is_set_by_a_non_test_caller():
    """A defaulted parameter exists only where non-test callers need
    different values (DESIGN §17). Callees are matched by name, so a
    same-named callee elsewhere can only hide a candidate, never invent
    one; each kept parameter names its reason."""
    calls = _calls_by_callee()
    parameters = _defaulted_parameters()
    assert "sim.engine.Simulator.schedule_periodic.first_at" in parameters
    unset = {
        qualified
        for qualified, (callee, positional, default) in parameters.items()
        if not any(
            _passes(call, qualified.rsplit(".", 1)[1], positional, default)
            for call in calls.get(callee, [])
        )
    }
    folded = sorted(unset - set(KEPT_PARAMETERS))
    assert folded == [], f"parameters no non-test caller sets: {folded}"
    stale = sorted(set(KEPT_PARAMETERS) - unset)
    assert stale == [], f"KEPT_PARAMETERS entries a caller now sets: {stale}"


#: Defaults every non-test caller overrides, kept on purpose: the
#: qualified name and why (an entry point Python calls with fewer
#: arguments than the program does, an executor argument). None is kept
#: today; anything else loses its default.
KEPT_DEFAULTS = {}


def test_every_default_is_relied_on_by_a_non_test_caller():
    """A parameter has a default only where a non-test caller relies on
    it (DESIGN §17): one that every caller under ``src/``, ``bench/`` and
    ``benchmarks/`` passes is a code path only tests reach — a component
    built without a collaborator it always has — and loses its default.
    Callees are matched by name, so a same-named callee elsewhere that
    omits the argument hides a candidate; each kept default names its
    reason."""
    calls = _calls_by_callee()
    parameters = _defaulted_parameters()
    overridden = {
        qualified
        for qualified, (callee, positional, default) in parameters.items()
        if calls.get(callee)
        and all(
            _passes(call, qualified.rsplit(".", 1)[1], positional, default)
            for call in calls[callee]
        )
    }
    dropped = sorted(overridden - set(KEPT_DEFAULTS))
    assert dropped == [], f"defaults every non-test caller overrides: {dropped}"
    stale = sorted(set(KEPT_DEFAULTS) - overridden)
    assert stale == [], f"KEPT_DEFAULTS entries a caller now relies on: {stale}"


#: Trees whose code counts as reaching a callable: the callers above and
#: the examples, the README's API in use.
CALLABLE_CALLER_TREES = CALLER_TREES + ("examples",)
#: A ``bench/`` string naming a dotted path (``"repro.net.link.Link.send"``)
#: binds each of its names.
DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

#: Public callables no non-test code loads, kept on purpose: the qualified
#: name and why. Anything else is deleted.
KEPT_CALLABLES = {
    # Hooks that Python calls.
    "checkpoint.snapshot._Pickler.reducer_override": "hook: pickle calls it "
    "for every object it writes",
    # Decisions already recorded.
    "experiments.ablations.tti_alignment": "decision: the design ablations stay",
    "experiments.ablations.software_vs_switch_middlebox": "decision: the design "
    "ablations stay",
    "experiments.ablations.null_vs_duplicate_fapi": "decision: the design "
    "ablations stay",
    "faults.proptest.generate_cases": "decision: faults/proptest.py owns the "
    "faults.prop stream",
    "faults.proptest.PropCase.plan_for": "decision: faults/proptest.py owns the "
    "faults.prop stream",
    "faults.proptest.PropCase.expected_exhaustions": "decision: faults/proptest.py "
    "owns the faults.prop stream",
}


def _public_callables() -> dict:
    """``{qualified name: (name, node)}`` for every public function and
    class of a module under ``src/repro``, and every public method of a
    class there (a private class's too: its methods may be hooks)."""
    found = {}
    for module, tree in modules():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = (item.name, item)
    return found


def _loaded_names(tree: ast.AST, dotted_paths: bool = False) -> Counter:
    """How often ``tree`` loads each name, bare or as an attribute (a
    callback handed to ``sim.at`` is one), and, with ``dotted_paths``, each
    name of a dotted-path string."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif (
            dotted_paths
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and DOTTED_PATH.fullmatch(node.value)
        ):
            names.update(node.value.split("."))
    return names


def test_every_public_callable_has_a_non_test_caller():
    """A public callable exists only where non-test code reaches it
    (DESIGN §17): one whose name nothing under ``src/``, ``bench/``,
    ``benchmarks/`` or ``examples/`` loads outside its own body is test-only
    API, and goes. Names are matched, so a same-named callee elsewhere can
    only hide a candidate, never invent one; each kept callable names its
    reason."""
    loads = Counter()
    for tree_name, module in _caller_modules(CALLABLE_CALLER_TREES):
        loads.update(_loaded_names(module, dotted_paths=tree_name == "bench"))
    callables = _public_callables()
    assert "checkpoint.snapshot._Pickler.reducer_override" in callables
    unreached = {
        qualified
        for qualified, (name, node) in callables.items()
        if loads[name] <= _loaded_names(node)[name]
    }
    deleted = sorted(unreached - set(KEPT_CALLABLES))
    assert deleted == [], f"public callables no non-test code reaches: {deleted}"
    stale = sorted(set(KEPT_CALLABLES) - unreached)
    assert stale == [], f"KEPT_CALLABLES entries non-test code now reaches: {stale}"


def test_a_scheduled_callback_binds_the_arguments_after_it():
    """``sim.at(t, phy.hang, "chaos")`` passes ``reason`` to ``hang``; the
    same call without ``"chaos"`` passes nothing, so the guard would name
    the parameter."""
    for source, passes in (
        ('sim.at(t, phy.hang, "chaos")', True),
        ("sim.at(t, phy.hang)", False),
    ):
        deferred = [
            call for call in _calls(ast.parse(source)) if callee(call) == "hang"
        ]
        assert len(deferred) == 1
        assert _passes(deferred[0], "reason", ["reason"]) is passes


def test_passing_the_default_literal_sets_nothing():
    """``cell.planned_migration(0)`` against ``cell_id: int = 0`` leaves
    the parameter at its default: a constant, as far as the guards go."""
    default = ast.parse("0", mode="eval").body
    for source, passes in (
        ("cell.planned_migration(0)", False),
        ("cell.planned_migration(cell_id=0)", False),
        ("cell.planned_migration()", False),
        ("cell.planned_migration(1)", True),
        ("cell.planned_migration(cell)", True),
    ):
        call = ast.parse(source, mode="eval").body
        assert _passes(call, "cell_id", ["cell_id"], default) is passes


def test_a_bench_dotted_path_loads_each_of_its_names():
    tree = ast.parse('PATCH = "repro.net.link.Link.send"')
    assert _loaded_names(tree, dotted_paths=True)["send"] == 1
    assert _loaded_names(tree)["send"] == 0


def test_a_callable_only_its_own_body_loads_is_unreached():
    """A self-recursive function loads its own name, but that load does
    not count as a caller."""
    tree = ast.parse("def countdown(n):\n    return countdown(n - 1) if n else 0\n")
    function = tree.body[0]
    assert _loaded_names(tree)["countdown"] <= _loaded_names(function)["countdown"]
    caller = ast.parse("countdown(3)")
    loads = _loaded_names(tree) + _loaded_names(caller)
    assert loads["countdown"] > _loaded_names(function)["countdown"]


#: A fenced ``python`` block of a Markdown file.
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _class_of(hint):
    """``hint`` when it names a class, else None (``Optional[...]``, a
    string that did not resolve, ...)."""
    return hint if isinstance(hint, type) else None


def _hints(obj) -> dict:
    import typing

    try:
        return typing.get_type_hints(obj)
    except (NameError, TypeError):  # A name the module imports only to check types.
        return {}


def _resolve(node: ast.AST, bound: dict, instances: dict):
    """What ``node`` evaluates to, as far as annotations tell without
    running it: ``("callable", obj)`` for a name imported from ``repro``
    (or an attribute of one), ``("method", function)`` for a method read
    off an instance, ``("instance", cls)`` for an object of a known
    class — a local assigned from a resolved call, a call's annotated
    return value, or an annotated attribute of another instance."""
    import inspect

    if isinstance(node, ast.Name):
        if node.id in bound:
            return "callable", bound[node.id]
        if node.id in instances:
            return "instance", instances[node.id]
        return None
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound, instances)
        if owner is None:
            return None
        kind, value = owner
        if kind == "callable":
            found = getattr(value, node.attr, None)
            return None if found is None else ("callable", found)
        if kind != "instance":
            return None
        member = inspect.getattr_static(value, node.attr, None)
        if isinstance(member, property):
            cls = _class_of(_hints(member.fget).get("return"))
            return None if cls is None else ("instance", cls)
        if inspect.isfunction(member):
            return "method", member
        cls = _class_of(_hints(value).get(node.attr))
        return None if cls is None else ("instance", cls)
    if isinstance(node, ast.Call):
        called = _resolve(node.func, bound, instances)
        if called is None:
            return None
        kind, value = called
        if kind == "callable" and isinstance(value, type):
            return "instance", value
        cls = _class_of(_hints(value).get("return"))
        return None if cls is None else ("instance", cls)
    return None


def _bind_calls(tree: ast.AST, where: str) -> set:
    """Bind every call ``tree`` makes whose callee :func:`_resolve` finds
    to that callee's signature (arity and keyword names, every required
    argument present), without running it; the qualified names bound."""
    import importlib
    import inspect

    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    instances = {}
    assignments = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]
    for _ in range(2):  # A local may be assigned from another.
        for node in assignments:
            value = _resolve(node.value, bound, instances)
            if value is not None and value[0] == "instance":
                instances[node.targets[0].id] = value[1]
    checked = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = _resolve(node.func, bound, instances)
        if called is None or called[0] == "instance":
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        ):
            continue
        kind, target = called
        args = ([None] if kind == "method" else []) + node.args
        try:
            inspect.signature(target).bind(
                *args, **{k.arg: k.value for k in node.keywords}
            )
        except TypeError as error:
            raise AssertionError(f"{where}:{node.lineno}: {error}") from None
        checked.add(f"{target.__module__}.{target.__qualname__}")
    return checked


def test_examples_bind_to_current_signatures():
    """Tier-1 does not run ``examples/`` or the README's ``python``
    blocks: every call they make to what they import from ``repro`` —
    and to methods of what those calls return — must still bind to the
    callee's signature, checked without running it."""
    root = SRC.parents[1]
    checked = set()
    for path in sorted((root / "examples").glob("*.py")):
        found = _bind_calls(parsed(path), path.name)
        assert found, f"{path.name} makes no call the check can resolve"
        checked |= found
    blocks = PYTHON_BLOCK.findall((root / "README.md").read_text())
    assert len(blocks) == 2
    for number, block in enumerate(blocks, 1):
        found = _bind_calls(ast.parse(block), f"README.md python block {number}")
        assert found, f"README python block {number} makes no call the check can resolve"
        checked |= found
    assert {
        "repro.experiments.ablations.detector_timeout_sweep",
        "repro.experiments.fig11_upgrade.run",
        "repro.cell.deployment.build_slingshot_cell",
        "repro.cell.deployment.SlingshotCell.planned_migration",
        "repro.core.orion.L2SideOrion.initialize_secondary",
    } <= checked


def test_a_call_missing_a_required_argument_does_not_bind():
    """``bind``, not ``bind_partial``: a call that omits a required
    argument fails the check, and so does one through an instance."""
    import pytest

    for source in (
        "from repro.cell.deployment import build_slingshot_cell\n"
        "build_slingshot_cell()\n",
        "from repro.cell.deployment import build_slingshot_cell\n"
        "cell = build_slingshot_cell(config)\n"
        "cell.planned_migration(0)\n",
    ):
        with pytest.raises(AssertionError):
            _bind_calls(ast.parse(source), "snippet")
