"""§5.2 and §8.2 — failure detection and dropped TTIs, from one kill sweep.

§5.2's parameters: timeout T = 450 µs (chosen above the measured 393 µs
maximum healthy inter-packet gap, §8.6), n = 50 timer ticks per timeout
→ 9 µs detection precision at 111 k internal packets/second (one per
tick) per monitored PHY. Detection of a SIGKILLed PHY therefore
completes within roughly one TTI.

§8.2's result: Slingshot drops at most three TTIs on a failover
(failure near the end of slot N → detection near the end of N+1 → Orion
reacts within tens of microseconds → secondary serves from ~N+2/N+3),
two orders of magnitude fewer than the hundreds a VM-migration blackout
costs; planned migrations drop zero.

Both come from one sweep over every phase a kill can take against the
tick grid: one warm cell, captured once (:func:`phase_branches`, which
the hang sweep shares), forked at each of the 56 tick-period offsets
that cover a slot into a primary kill and into ``planned_migration()``.
A kill branch yields the detection record, the RU's slots without
control and the slot its migration committed at. A restored copy of
the warm cell then runs healthy to count false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.baselines.vm_migration import PrecopyMigrationModel, TransportKind
from repro.cell.config import CellConfig
from repro.cell.deployment import build_slingshot_cell
from repro.checkpoint.snapshot import Checkpoint
from repro.phy.process import downlink_schedule
from repro.sim.units import MS, US, ns_to_us, seconds

#: How long a forked branch runs past its kill or migration: the paper's
#: < 10 ms downtime bound, past which recovery is over.
RECOVERY_NS = 10 * MS


def phase_branches(seed: int) -> Tuple[Checkpoint, List[int]]:
    """One default cell warmed to 50 ms, captured, and the instant of
    each tick-period offset that covers a slot, 1 ms past the warm
    point: 56 instants, phase k at ``warm + 1 ms + k * tick``. The
    captured cell itself is dropped: a run continues on a restore."""
    cell = build_slingshot_cell(CellConfig(seed=seed))
    cell.run_for(50 * MS)
    warm = Checkpoint.capture(cell)
    period = cell.middlebox.detector.config.tick_period_ns
    phases = -(-cell.slot_ns // period)
    return warm, [warm.meta.sim_now_ns + MS + k * period for k in range(phases)]


@dataclass
class SweepResult:
    #: Kill (and planned-migration) instant per phase (ns).
    kill_at_ns: List[int]
    # --- §5.2 ---------------------------------------------------------
    #: Kill -> detection, per kill phase (µs).
    detection_latencies_us: List[float]
    #: Last heartbeat the switch saw -> detection, per kill phase (µs).
    heartbeat_to_detection_us: List[float]
    #: Detections each kill branch reported (exactly one is right).
    detections_per_kill: List[int]
    false_positives: int
    healthy_seconds: float
    timeout_us: float
    precision_us: float
    pktgen_rate_pps: float
    #: The PHY's maximum healthy gap between downlink frames, derived
    #: (:func:`~repro.phy.process.downlink_schedule`, §8.6).
    max_gap_us: float
    # --- §8.2 ---------------------------------------------------------
    #: Dropped (no-control) TTIs per failover, one per kill phase.
    failover_dropped: List[int]
    #: The boundary slot each kill branch's migration committed at.
    committed_slots: List[int]
    #: Dropped TTIs per planned migration, one per phase.
    planned_dropped: List[int]
    #: Migrations committed per planned-migration branch (one is right).
    planned_commits: List[int]
    #: Equivalent dropped TTIs for the median VM-migration pause.
    vm_migration_dropped: int
    slot_us: float

    def median_us(self) -> float:
        return float(np.median(self.detection_latencies_us))

    def max_us(self) -> float:
        return float(np.max(self.detection_latencies_us))

    def max_failover_dropped(self) -> int:
        return max(self.failover_dropped) if self.failover_dropped else 0


def run(healthy_seconds: float = 2.0, seed: int = 0) -> SweepResult:
    """The sweep of :func:`sweep` from a fresh warm cell of ``seed``."""
    return sweep(*phase_branches(seed), healthy_seconds)


def sweep(warm: Checkpoint, instants: List[int], healthy_seconds: float) -> SweepResult:
    """Fork ``warm`` into a kill and a planned migration at each instant,
    then run a restored copy ``healthy_seconds`` on.

    Each branch runs through recovery; the switch's own detection record
    supplies the detection time and the last heartbeat before it, the
    RU's count the dropped TTIs. Any detection in the healthy run is a
    false positive.
    """
    healthy = warm.restore()
    before = healthy.ru.stats.slots_without_control
    from_kill: List[float] = []
    from_heartbeat: List[float] = []
    counts: List[int] = []
    failover: List[int] = []
    committed: List[int] = []
    planned: List[int] = []
    planned_commits: List[int] = []
    for at in instants:
        branch = warm.restore()
        branch.kill_phy_at(0, at)
        branch.sim.run_until(at + RECOVERY_NS)
        detections = branch.middlebox.detector.detections
        counts.append(len(detections))
        if detections:
            _, detected_at, last_heartbeat = detections[0]
            from_kill.append(ns_to_us(detected_at - at))
            from_heartbeat.append(ns_to_us(detected_at - last_heartbeat))
        failover.append(branch.ru.stats.slots_without_control - before)
        committed.append(branch.trace.events("mbox.migration_committed")[0]["slot"])

        branch = warm.restore()
        branch.sim.at(at, branch.planned_migration)
        branch.sim.run_until(at + RECOVERY_NS)
        planned.append(branch.ru.stats.slots_without_control - before)
        planned_commits.append(branch.trace.count("mbox.migration_committed"))
    healthy.run_for(seconds(healthy_seconds))
    # VM migration: the median pause time expressed in TTIs.
    slot_us = healthy.slot_ns / US
    model = PrecopyMigrationModel(rng=np.random.default_rng(healthy.config.seed))
    runs = model.run_campaign(TransportKind.RDMA, 20)
    median_pause_us = float(np.median([r.pause_time_ns for r in runs])) / US
    config = healthy.middlebox.detector.config
    schedule = downlink_schedule()
    return SweepResult(
        kill_at_ns=list(instants),
        detection_latencies_us=from_kill,
        heartbeat_to_detection_us=from_heartbeat,
        detections_per_kill=counts,
        false_positives=healthy.trace.count("mbox.failure_detected"),
        healthy_seconds=healthy_seconds,
        timeout_us=config.timeout_ns / US,
        precision_us=config.precision_ns / US,
        pktgen_rate_pps=config.pktgen_rate_pps,
        max_gap_us=schedule.max_gap_ns / US,
        failover_dropped=failover,
        committed_slots=committed,
        planned_dropped=planned,
        planned_commits=planned_commits,
        vm_migration_dropped=int(median_pause_us / slot_us),
        slot_us=slot_us,
    )


def summarize(result: SweepResult) -> str:
    lines = ["§5.2 — in-switch failure detector"]
    lines.append(
        f"  T = {result.timeout_us:.0f} us, precision = {result.precision_us:.0f} us, "
        f"pktgen {result.pktgen_rate_pps / 1e3:.0f} kpps per monitored PHY"
    )
    phases = len(result.kill_at_ns)
    if result.detection_latencies_us:
        since = result.heartbeat_to_detection_us
        lines.append(
            f"  {phases} kill phases, one per tick across a slot: detection "
            f"{min(since):.1f}-{max(since):.1f} us after the last heartbeat "
            f"(paper: T within one tick)"
        )
        lines.append(
            f"  detection after the kill: median {result.median_us():.1f} us, "
            f"min {min(result.detection_latencies_us):.1f} us, "
            f"max {result.max_us():.1f} us"
        )
    lines.append(
        f"  false positives over a {result.healthy_seconds:.1f} s healthy run: "
        f"{result.false_positives} (derived max healthy gap "
        f"{result.max_gap_us:.0f} us < T)"
    )
    worst = result.max_failover_dropped()
    at_worst = [k for k, n in enumerate(result.failover_dropped) if n == worst]
    lines += [
        "§8.2 — dropped TTIs per resilience event",
        f"  Slingshot failover: max {worst} TTIs over {phases} kill phases, "
        f"at {len(at_worst)} of them ({at_worst[0]}-{at_worst[-1]}) "
        f"(paper: <= 3)",
        f"  Slingshot planned migration: max {max(result.planned_dropped)} "
        f"TTIs over {phases} phases, commits per phase "
        f"{sorted(set(result.planned_commits))} (paper: 0)",
        f"  VM migration (median pause): ~{result.vm_migration_dropped} TTIs "
        f"(paper: hundreds)",
    ]
    return "\n".join(lines)
