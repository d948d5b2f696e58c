"""Continuous-operation (soak) state: background chaos + probe monitor.

A soak run is a long-horizon cell execution with fault arrivals spread
across the whole horizon instead of the campaign's single fixed fault
window. The whole :class:`SoakState` graph is the checkpoint root that
``python -m repro soak`` snapshots and resumes, and a resumed soak must
land on the uninterrupted run's rolling digest.

Determinism contract: the background :class:`~repro.faults.plan.FaultPlan`
is pre-drawn **once at build time** from the reserved
``faults.soak.plan`` registry stream, before any cell event runs. From
then on the plan is pure data executed by the ordinary
:class:`~repro.faults.injector.FaultInjector`, so an interrupted soak
restored from a checkpoint replays the exact same fault arrivals — the
in-flight injector state (scheduled transitions, armed link
impairments) rides along inside the pickled graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.faults.campaign import ProbeHarness, arm_plan, build_probe_harness
from repro.faults.plan import FaultPlan, LinkFaultSpec, ProcessFaultSpec
from repro.faults.scenarios import PROBE_START_NS
from repro.sim.rng import RngRegistry
from repro.sim.units import MS

#: Reserved registry stream the background plan is pre-drawn from.
SOAK_PLAN_STREAM = "faults.soak.plan"

#: Background fault menu: each arrival picks one by a single uniform.
_CRASH_RESTART_DURATION_NS = 120 * MS
_SLOWDOWN_DURATION_NS = 100 * MS
_SLOWDOWN_NS = 2 * MS
_LINK_WINDOW_NS = 100 * MS
_LINK_LOSS_PROB = 0.03
#: Quiet margin after a fault's own window before the next may land, so
#: background faults never overlap (two concurrent crash_restarts could
#: take down both PHYs at once, which is the no_secondary scenario's
#: job, not the soak's).
_FAULT_MARGIN_NS = 80 * MS


#: Digest window of the soak cell's trace.
WINDOW_NS = 250 * MS
#: Checkpoint interval; a multiple of :data:`WINDOW_NS`, so trace
#: eviction at checkpoint boundaries folds only complete digest windows.
CHECKPOINT_EVERY_NS = 500 * MS
#: The first background fault, after the probe flow has started.
FIRST_FAULT_NS = 600 * MS
#: Mean gap between one fault's quiet margin and the next arrival.
MEAN_FAULT_GAP_NS = 450 * MS


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run; lives inside every checkpoint."""

    seed: int = 1
    horizon_ns: int = 3_000 * MS


def generate_soak_plan(rng: RngRegistry, config: SoakConfig) -> FaultPlan:
    """Pre-draw the background fault arrivals for one soak horizon.

    All randomness comes from the reserved ``faults.soak.plan`` stream
    in one serial pass, so the plan depends only on the seed and the
    config — never on execution interleaving. Arrivals alternate target
    bookkeeping with the cell's failover behaviour: a ``crash_restart``
    of the current primary hands the primary role to the standby, so
    the tracker flips with each one and gray faults always land on the
    node actually serving traffic.
    """
    stream = rng.stream("faults.soak.plan")
    process_faults: List[ProcessFaultSpec] = []
    link_faults: List[LinkFaultSpec] = []
    primary = 0
    at_ns = FIRST_FAULT_NS
    while at_ns < config.horizon_ns - _CRASH_RESTART_DURATION_NS:
        draw = stream.random()
        gap_scale = 0.75 + 0.5 * stream.random()
        if draw < 0.4:
            process_faults.append(
                ProcessFaultSpec(
                    phy_id=primary,
                    kind="crash_restart",
                    at_ns=at_ns,
                    duration_ns=_CRASH_RESTART_DURATION_NS,
                )
            )
            primary = 1 - primary
            fault_end = at_ns + _CRASH_RESTART_DURATION_NS
        elif draw < 0.7:
            process_faults.append(
                ProcessFaultSpec(
                    phy_id=primary,
                    kind="slowdown",
                    at_ns=at_ns,
                    duration_ns=_SLOWDOWN_DURATION_NS,
                    slowdown_ns=_SLOWDOWN_NS,
                )
            )
            fault_end = at_ns + _SLOWDOWN_DURATION_NS
        else:
            link_faults.append(
                LinkFaultSpec(
                    link_pattern="ru0",
                    start_ns=at_ns,
                    end_ns=at_ns + _LINK_WINDOW_NS,
                    loss_prob=_LINK_LOSS_PROB,
                )
            )
            fault_end = at_ns + _LINK_WINDOW_NS
        at_ns = fault_end + _FAULT_MARGIN_NS
        at_ns += int(MEAN_FAULT_GAP_NS * gap_scale)
    return FaultPlan(
        name=f"soak-seed{config.seed}",
        link_faults=tuple(link_faults),
        process_faults=tuple(process_faults),
    )


class ProbeGapMonitor:
    """Incremental max-probe-gap tracker.

    The campaign computes its gap metric from the full trace; a soak
    run evicts trace windows, so the gap must be folded incrementally
    at delivery time. Lives in the checkpointed graph — a restored soak
    continues the same running maximum.
    """

    __slots__ = ("last_rx_ns", "max_gap_ns", "deliveries")

    def __init__(self, start_ns: int) -> None:
        self.last_rx_ns = start_ns
        self.max_gap_ns = 0
        self.deliveries = 0

    def on_delivery(self, now_ns: int) -> None:
        gap = now_ns - self.last_rx_ns
        if gap > self.max_gap_ns:
            self.max_gap_ns = gap
        self.last_rx_ns = now_ns
        self.deliveries += 1


@dataclass
class SoakState:
    """The checkpoint root of one soak run: the campaign's probed cell
    (:class:`~repro.faults.campaign.ProbeHarness` — simulation, armed
    background injector, probe endpoints; driven by the same
    :func:`~repro.faults.campaign.drive_to`) plus the soak's config and
    the incremental monitor its probe tap folds into. Restoring this one
    object resumes the run exactly where it paused.
    """

    config: SoakConfig
    harness: ProbeHarness
    monitor: ProbeGapMonitor


def build_soak_state(config: SoakConfig) -> SoakState:
    """Build a fresh soak run: probed cell, pre-drawn plan armed on it."""
    monitor = ProbeGapMonitor(PROBE_START_NS)
    harness = build_probe_harness(config.seed, monitor=monitor)
    harness.cell.trace.window_ns = WINDOW_NS
    arm_plan(harness, generate_soak_plan(harness.cell.rng, config))
    return SoakState(config=config, harness=harness, monitor=monitor)


def plan_summary(plan: FaultPlan) -> dict:
    """Compact JSON summary of a background plan for soak reports."""
    kinds: dict = {}
    for spec in plan.process_faults:
        kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
    if plan.link_faults:
        kinds["link_window"] = len(plan.link_faults)
    first = min(
        [s.at_ns for s in plan.process_faults]
        + [s.start_ns for s in plan.link_faults],
        default=None,
    )
    last = max(
        [s.at_ns for s in plan.process_faults]
        + [s.start_ns for s in plan.link_faults],
        default=None,
    )
    return {
        "name": plan.name,
        "faults_total": len(plan.process_faults) + len(plan.link_faults),
        "by_kind": dict(sorted(kinds.items())),
        "first_fault_ns": first,
        "last_fault_ns": last,
    }
