"""Structural guard: ``cell/deployment.py`` is the one wiring site.

Every composition root in ``src/repro`` — the fleet composer, the chaos /
soak probe harness, the experiments, the perf scenarios — composes
``build_slingshot_cell`` / ``build_baseline_cell`` and never constructs a
vRAN component itself, so a fault plan, a checkpoint, a telemetry probe
or a fleet reaches every deployment shape there is. The perf micro
drivers that hand-wire a bare ``Switch`` / ``Link`` are not components
and are not covered.
"""

import ast
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
