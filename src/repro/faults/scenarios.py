"""The standard chaos scenario matrix.

Every scenario shares one timeline so results are comparable:

* warmup + UE attach: 0 .. PROBE_START_NS
* probe flow starts at PROBE_START_NS (uplink UDP, ~1.2 ms/packet)
* measurement window: MEASURE_START_NS .. MEASURE_END_NS
* the fault lands at FAULT_AT_NS (link fault windows open there)
* the run ends at RUN_END_NS

Downtime budgets are per-scenario: failovers must recover within the
paper's sub-10 ms envelope plus probe-cadence slack; pure link noise has
a looser budget covering HARQ/scheduler retries under sustained loss.
A budget of ``None`` means user-visible downtime is unbounded by design
(no standby exists) and the run is judged on degraded-mode visibility
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.plan import (
    FaultPlan,
    LinkFaultSpec,
    ProcessFaultSpec,
)
from repro.net.packet import EtherType
from repro.sim.units import MS

#: Shared campaign timeline (absolute simulated times).
PROBE_START_NS = 300 * MS
MEASURE_START_NS = 350 * MS
FAULT_AT_NS = 550 * MS
MEASURE_END_NS = 1_000 * MS
RUN_END_NS = 1_050 * MS

#: Link-fault windows close before the measurement window ends so the
#: flow's tail confirms recovery after the noise stops.
FAULT_END_NS = 850 * MS


@dataclass(frozen=True)
class ChaosScenario:
    """One named entry of the campaign matrix."""

    name: str
    plan: FaultPlan
    #: Fronthaul boundary commits the run must produce — exactly.
    expected_migrations: int
    #: Max tolerated probe-delivery gap (None = downtime unbounded by
    #: design; the degraded-mode invariant applies instead).
    downtime_budget_ns: Optional[int]
    num_phy_servers: int = 2
    #: Documentation: which detection path should catch the fault.
    detection_path: str = "none"
    description: str = ""

    def expect_failover_impossible(self) -> bool:
        return self.downtime_budget_ns is None


def _fronthaul(spec_kwargs: dict) -> LinkFaultSpec:
    return LinkFaultSpec(
        link_pattern="ru0",
        start_ns=FAULT_AT_NS,
        end_ns=FAULT_END_NS,
        **spec_kwargs,
    )


def _orion_transport(spec_kwargs: dict) -> LinkFaultSpec:
    return LinkFaultSpec(
        link_pattern="l2",
        start_ns=FAULT_AT_NS,
        end_ns=FAULT_END_NS,
        ethertypes=(EtherType.IPV4,),
        **spec_kwargs,
    )


def standard_scenarios() -> Tuple[ChaosScenario, ...]:
    """The default matrix swept by ``python -m repro chaos``."""
    return (
        ChaosScenario(
            name="fh_loss",
            plan=FaultPlan(
                name="fh_loss",
                link_faults=(_fronthaul({"loss_prob": 0.05}),),
            ),
            expected_migrations=0,
            downtime_budget_ns=30 * MS,
            detection_path="HARQ/scheduler retries",
            description="5% loss on both fronthaul directions",
        ),
        ChaosScenario(
            name="fh_corrupt",
            plan=FaultPlan(
                name="fh_corrupt",
                link_faults=(_fronthaul({"corrupt_prob": 0.05}),),
            ),
            expected_migrations=0,
            downtime_budget_ns=30 * MS,
            detection_path="payload integrity checks",
            description="5% payload corruption on the fronthaul",
        ),
        ChaosScenario(
            name="fh_reorder",
            plan=FaultPlan(
                name="fh_reorder",
                link_faults=(
                    _fronthaul(
                        {"reorder_prob": 0.25, "reorder_jitter_ns": 150_000}
                    ),
                ),
            ),
            expected_migrations=0,
            downtime_budget_ns=25 * MS,
            detection_path="slot-deadline discipline",
            description="25% of fronthaul frames jittered by up to 150 us",
        ),
        ChaosScenario(
            name="orion_loss",
            plan=FaultPlan(
                name="orion_loss",
                link_faults=(_orion_transport({"loss_prob": 0.03}),),
            ),
            expected_migrations=0,
            downtime_budget_ns=30 * MS,
            detection_path="Orion gap repair + per-slot watchdog nulls",
            description="3% loss on the inter-Orion UDP transport",
        ),
        ChaosScenario(
            name="orion_dup",
            plan=FaultPlan(
                name="orion_dup",
                link_faults=(_orion_transport({"dup_prob": 0.3}),),
            ),
            expected_migrations=0,
            downtime_budget_ns=20 * MS,
            detection_path="idempotent FAPI bookkeeping",
            description="30% duplication on the inter-Orion UDP transport",
        ),
        ChaosScenario(
            name="crash",
            plan=FaultPlan(
                name="crash",
                process_faults=(
                    ProcessFaultSpec(phy_id=0, kind="crash", at_ns=FAULT_AT_NS),
                ),
            ),
            expected_migrations=1,
            downtime_budget_ns=15 * MS,
            detection_path="in-switch heartbeat detector",
            description="fail-stop crash of the primary PHY",
        ),
        ChaosScenario(
            name="crash_restart",
            plan=FaultPlan(
                name="crash_restart",
                process_faults=(
                    ProcessFaultSpec(
                        phy_id=0,
                        kind="crash_restart",
                        at_ns=FAULT_AT_NS,
                        duration_ns=200 * MS,
                    ),
                ),
            ),
            expected_migrations=1,
            downtime_budget_ns=15 * MS,
            detection_path="in-switch detector; revival via stored config",
            description="primary crashes, restarts 200 ms later as standby",
        ),
        ChaosScenario(
            name="hang",
            plan=FaultPlan(
                name="hang",
                process_faults=(
                    ProcessFaultSpec(phy_id=0, kind="hang", at_ns=FAULT_AT_NS),
                ),
            ),
            expected_migrations=1,
            downtime_budget_ns=20 * MS,
            detection_path="L2-Orion response watchdog (gray failure)",
            description="primary wedges: heartbeats continue, FAPI stops",
        ),
        ChaosScenario(
            name="slowdown",
            plan=FaultPlan(
                name="slowdown",
                process_faults=(
                    ProcessFaultSpec(
                        phy_id=0,
                        kind="slowdown",
                        at_ns=FAULT_AT_NS,
                        duration_ns=200 * MS,
                        slowdown_ns=3 * MS,
                    ),
                ),
            ),
            expected_migrations=0,
            downtime_budget_ns=20 * MS,
            detection_path="none (degraded, not failed)",
            description="uplink pipeline inflated by 3 ms for 200 ms",
        ),
        ChaosScenario(
            name="cmd_drop",
            plan=FaultPlan(
                name="cmd_drop",
                link_faults=(
                    LinkFaultSpec(
                        link_pattern="l2->edge-switch",
                        start_ns=FAULT_AT_NS,
                        end_ns=FAULT_END_NS,
                        loss_prob=0.5,
                        ethertypes=(EtherType.SLINGSHOT,),
                    ),
                ),
                process_faults=(
                    ProcessFaultSpec(phy_id=0, kind="crash", at_ns=FAULT_AT_NS),
                ),
            ),
            expected_migrations=1,
            downtime_budget_ns=25 * MS,
            detection_path="command retransmission + idempotent commits",
            description="50% of migrate_on_slot/set_monitor commands lost",
        ),
        ChaosScenario(
            name="notification_dup",
            plan=FaultPlan(
                name="notification_dup",
                link_faults=(
                    LinkFaultSpec(
                        link_pattern="edge-switch->l2",
                        start_ns=FAULT_AT_NS,
                        end_ns=FAULT_END_NS,
                        loss_prob=0.3,
                        dup_prob=1.0,
                        ethertypes=(EtherType.SLINGSHOT,),
                    ),
                ),
                process_faults=(
                    ProcessFaultSpec(phy_id=0, kind="crash", at_ns=FAULT_AT_NS),
                ),
            ),
            expected_migrations=1,
            downtime_budget_ns=20 * MS,
            detection_path="duplicate suppression; watchdog backstop on loss",
            description=(
                "failure notifications duplicated, 30% chance the only "
                "notification is lost (response watchdog then recovers)"
            ),
        ),
        ChaosScenario(
            name="no_secondary",
            plan=FaultPlan(
                name="no_secondary",
                process_faults=(
                    ProcessFaultSpec(phy_id=0, kind="crash", at_ns=FAULT_AT_NS),
                ),
            ),
            expected_migrations=0,
            downtime_budget_ns=None,
            num_phy_servers=1,
            detection_path="in-switch detector; failover impossible",
            description="crash with no standby: degraded mode must be visible",
        ),
    )


def scenario_by_name() -> Dict[str, ChaosScenario]:
    return {s.name: s for s in standard_scenarios()}
