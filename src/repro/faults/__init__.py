"""Deterministic chaos harness (fault injection + recovery invariants).

Slingshot's claim is sub-10 ms recovery *under failure* — so the repo
needs a way to produce failures richer than a single fail-stop
``kill_phy``: lossy/duplicating/reordering/corrupting links, gray PHY
failures (hangs that keep heartbeating, slowdowns), and a lossy control
plane. This package provides:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` scenarios;
* :mod:`repro.faults.link_faults` — the per-link impairment hook;
* :mod:`repro.faults.injector` — arms a plan against a built cell;
* :mod:`repro.faults.invariants` — recovery invariants over the trace;
* :mod:`repro.faults.scenarios` — the standard scenario matrix;
* :mod:`repro.faults.campaign` — ``python -m repro chaos``.

Every random draw comes from ``faults.*`` registry streams (a strict
namespace: ``RngRegistry.stream`` refuses it to any other subsystem), so
any (scenario, seed) pair replays to the bit-identical trace digest.
"""

from repro.faults.plan import (
    FaultPlan,
    LinkFaultSpec,
    ProcessFaultSpec,
)
from repro.faults.link_faults import CorruptedPayload, LinkImpairment
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantResult, RecoveryInvariants
from repro.faults.scenarios import ChaosScenario, standard_scenarios

__all__ = [
    "ChaosScenario",
    "CorruptedPayload",
    "FaultInjector",
    "FaultPlan",
    "InvariantResult",
    "LinkFaultSpec",
    "LinkImpairment",
    "ProcessFaultSpec",
    "RecoveryInvariants",
    "standard_scenarios",
]
