"""Shared fixtures for the tier-1 suite."""

import functools
import inspect
import textwrap
from typing import Any, Dict

import pytest

from repro.checkpoint import Checkpoint
from repro.checkpoint import soak as soak_module
from repro.core import orion as orion_module
from repro.experiments.sec52_detector import phase_branches
from repro.faults.campaign import (
    arm_plan,
    build_fork_base,
    drive_to,
    fork_key,
    judge_execution,
)
from repro.faults.scenarios import RUN_END_NS, scenario_by_name
from repro.harness import branch_sweep
from repro.sim.units import MS

#: Mid-recovery capture point: inside every standard scenario's fault
#: window (faults land at 550 ms, recovery completes by 850 ms).
MID_RECOVERY_NS = 600 * MS


@pytest.fixture
def zero_orion_service(monkeypatch):
    """Orion's service queue as a zero-cost relay, for rigs that assert
    hop-by-hop timing without the Fig 12 service model."""
    monkeypatch.setattr(orion_module, "SERVICE_BASE_NS", 0)
    monkeypatch.setattr(orion_module, "SERVICE_PER_BYTE_NS", 0.0)


def _mid_recovery_verify(base, payload):
    """Branch one ``(scenario, seed)`` from its warm base, checkpoint it
    mid-recovery, and finish both timelines.

    Returns the continued and restored runs — the callers assert their
    records are identical, and the continued one against the recorded
    chaos baseline.
    """
    scenario, seed = payload
    harness = base.restore()
    arm_plan(harness, scenario.plan)
    drive_to(harness, MID_RECOVERY_NS)
    checkpoint = Checkpoint.capture(harness, label=f"mid-recovery {scenario.name}")
    drive_to(harness, RUN_END_NS)
    continued = judge_execution(scenario, seed, harness)
    restored = checkpoint.restore()
    drive_to(restored, RUN_END_NS)
    return {
        "continued": continued,
        "restored": judge_execution(scenario, seed, restored),
        "checkpoint_sim_ns": checkpoint.meta.sim_now_ns,
    }


@pytest.fixture(scope="session")
def seed1_chaos():
    """The session's one seed-1 chaos pass: the two warm fork bases,
    and every scenario class branched from its base once at jobs 2 with
    a capture at :data:`MID_RECOVERY_NS` restored to the end beside it.
    Scenario name -> ``_mid_recovery_verify``'s result."""
    catalog = scenario_by_name()
    results, _ = branch_sweep(
        [(name, (catalog[name], 1)) for name in sorted(catalog)],
        jobs=2,
        base_key=lambda payload: fork_key(*payload),
        build_base=build_fork_base,
        run_branch=_mid_recovery_verify,
    )
    return results


@pytest.fixture(scope="session")
def warm_phases():
    """The default seed-0 cell warmed and captured, with its 56 kill
    phases (``sec52_detector.phase_branches``): the one base of §5.2 and
    §8.2's sweep and of the hang sweep. Every run on it is a restore."""
    return phase_branches(0)


@pytest.fixture(scope="session")
def one_soak_profile_execution():
    """``soak.run_profile`` is a pure function of its arguments, so every
    test that requests this shares one real execution per profile (the
    quick one is ~4 s)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            soak_module,
            "run_profile",
            functools.lru_cache(maxsize=None)(soak_module.run_profile),
        )
        yield


def mutated(function, old: str, new: str):
    """``function`` recompiled with the first ``old`` in its source replaced
    (the one-line mutants the differential suites apply to live code)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, f"{function.__qualname__} no longer contains {old!r}"
    namespace: Dict[str, Any] = {}
    exec(source.replace(old, new, 1), function.__globals__, namespace)
    return namespace[function.__name__]
