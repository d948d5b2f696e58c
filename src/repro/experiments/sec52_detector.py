"""§5.2 — in-switch failure detection microbenchmark.

Paper parameters: timeout T = 450 µs (chosen above the measured 393 µs
maximum healthy inter-packet gap), n = 50 timer ticks per timeout →
9 µs detection precision at 111 k internal packets/second (one per
tick) per monitored PHY. Detection of a SIGKILLed PHY therefore
completes within roughly one TTI.

This harness kills the primary at every phase a kill can take against
the tick grid: one warm cell, captured once, forked into a kill at each
of the 56 tick-period offsets that cover a slot (:func:`phase_branches`,
which §8.2 and the hang sweep share). It reports detection latency from
the kill and from the last heartbeat the switch saw, then continues the
warm cell healthy to count false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cell.config import CellConfig
from repro.cell.deployment import SlingshotCell, build_slingshot_cell
from repro.checkpoint.snapshot import Checkpoint
from repro.sim.units import MS, US, ns_to_us, run_for_ns, run_until_ns, seconds

#: How long a forked branch runs past its kill or migration: the paper's
#: < 10 ms downtime bound, past which recovery is over.
RECOVERY_NS = 10 * MS


def phase_branches(seed: int = 0) -> Tuple[SlingshotCell, Checkpoint, List[int]]:
    """One default cell warmed to 50 ms, its checkpoint, and the instant
    of each tick-period offset that covers a slot, 1 ms past the warm
    point: 56 instants, phase k at ``warm + 1 ms + k * tick``."""
    cell = build_slingshot_cell(CellConfig(seed=seed))
    run_for_ns(cell, 50 * MS)
    warm = Checkpoint.capture(cell)
    period = cell.middlebox.config.detector.tick_period_ns
    phases = -(-cell.slot_ns // period)
    return cell, warm, [warm.meta.sim_now_ns + MS + k * period for k in range(phases)]


@dataclass
class DetectorResult:
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

    def median_us(self) -> float:
        return float(np.median(self.detection_latencies_us))

    def max_us(self) -> float:
        return float(np.max(self.detection_latencies_us))


def run(healthy_seconds: float = 2.0, seed: int = 0) -> DetectorResult:
    """Kill the primary at each of the 56 phases, then run healthy.

    Each branch restores the warm checkpoint, kills PHY 0 at its
    instant and runs through recovery; the switch's own detection
    record supplies the detection time and the last heartbeat before
    it. The warm cell itself then runs ``healthy_seconds`` on, and any
    detection in it is a false positive.
    """
    cell, warm, instants = phase_branches(seed)
    from_kill: List[float] = []
    from_heartbeat: List[float] = []
    counts: List[int] = []
    for kill_at in instants:
        branch = warm.restore()
        branch.kill_phy_at(0, kill_at)
        run_until_ns(branch.sim, kill_at + RECOVERY_NS)
        detections = branch.middlebox.detector.detections
        counts.append(len(detections))
        if detections:
            _, detected_at, last_heartbeat = detections[0]
            from_kill.append(ns_to_us(detected_at - kill_at))
            from_heartbeat.append(ns_to_us(detected_at - last_heartbeat))
    run_for_ns(cell, seconds(healthy_seconds))
    config = cell.middlebox.config.detector
    return DetectorResult(
        detection_latencies_us=from_kill,
        heartbeat_to_detection_us=from_heartbeat,
        detections_per_kill=counts,
        false_positives=cell.trace.count("mbox.failure_detected"),
        healthy_seconds=healthy_seconds,
        timeout_us=config.timeout_ns / US,
        precision_us=config.precision_ns / US,
        pktgen_rate_pps=config.pktgen_rate_pps,
    )


def summarize(result: DetectorResult) -> str:
    lines = ["§5.2 — in-switch failure detector"]
    lines.append(
        f"  T = {result.timeout_us:.0f} us, precision = {result.precision_us:.0f} us, "
        f"pktgen {result.pktgen_rate_pps / 1e3:.0f} kpps per monitored PHY"
    )
    kills = len(result.detections_per_kill)
    if result.detection_latencies_us:
        since = result.heartbeat_to_detection_us
        lines.append(
            f"  {kills} kill phases, one per tick across a slot: detection "
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
        f"{result.false_positives} (max healthy gap ~390 us < T)"
    )
    return "\n".join(lines)
