"""Every deployment shape builds its components with every collaborator.

A component takes what it works with — its trace, its uplink, its slot
clock, its RNG registry — as a required argument (DESIGN §17), so a
builder that forgets one fails at construction with a ``TypeError``
naming it, instead of a component that silently drops every frame,
datagram or record it would have sent there. Each case below rebuilds a
deployment shape with one collaborator withheld from one component.
"""

import inspect

import pytest

from repro.cell import deployment
from repro.cell.config import CellConfig
from repro.faults.campaign import build_probe_harness
from repro.fleet import composer
from repro.fleet.composer import FleetConfig, build_fleet

#: The deployment shapes and how each is built.
SHAPES = {
    "slingshot": lambda: deployment.build_slingshot_cell(CellConfig(seed=1)),
    "baseline": lambda: deployment.build_baseline_cell(CellConfig(seed=1)),
    "crossed-pod": lambda: deployment.build_slingshot_cell(
        CellConfig(seed=1), placement=[(0, 1), (1, 0)]
    ),
    "fleet-island": lambda: build_fleet(
        FleetConfig(seed=1, num_cells=2, users_per_cell=10, tracer_cells=1)
    ),
    "probe-harness": lambda: build_probe_harness(1),
}

#: (module the builder reads the class from, class, collaborator).
COLLABORATORS = [
    (deployment, "PhyProcess", "uplink"),
    (deployment, "PhyProcess", "trace"),
    (deployment, "PhyProcess", "config"),
    (deployment, "RadioUnit", "trace"),
    (deployment, "L2Process", "trace"),
    (deployment, "UserEquipment", "trace"),
    (deployment, "CoreNetwork", "registry"),
    (deployment, "CoreNetwork", "trace"),
    (deployment, "ShmChannel", "endpoint"),
]
#: Orion's components, which every shape but the baseline builds.
ORION = [
    (deployment, "PhySideOrion", "slot_clock"),
    (deployment, "PhySideOrion", "trace"),
    (deployment, "L2SideOrion", "trace"),
]
#: Components only some shapes build.
SHAPE_COLLABORATORS = {
    "slingshot": ORION,
    "crossed-pod": ORION,
    "fleet-island": ORION + [
        (composer, "StandbyPool", "trace"),
        (composer, "PoolGate", "on_decision"),
    ],
    "probe-harness": ORION,
}

CASES = [
    pytest.param(shape, module, cls, name, id=f"{shape}-{cls}.{name}")
    for shape in SHAPES
    for module, cls, name in COLLABORATORS + SHAPE_COLLABORATORS.get(shape, [])
]


def _withholding(cls, name):
    """``cls``, but built without its ``name`` argument however the
    builder passes it."""
    signature = inspect.signature(cls)

    def build(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        del arguments[name]
        return cls(**arguments)

    return build


@pytest.mark.parametrize("shape, module, cls, name", CASES)
def test_a_missing_collaborator_fails_at_construction(
    monkeypatch, shape, module, cls, name
):
    monkeypatch.setattr(module, cls, _withholding(getattr(module, cls), name))
    with pytest.raises(TypeError, match=f"'{name}'"):
        SHAPES[shape]()


@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_builds_with_every_collaborator(shape):
    """The control: the same builds, nothing withheld."""
    assert SHAPES[shape]() is not None
