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
    shard worker that runs it) is a push site growing back."""
    importers = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("telemetry/") or relative == "parallel/workers.py":
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
