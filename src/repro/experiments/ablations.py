"""Ablations of Slingshot's design choices (DESIGN.md §5).

Each function isolates one design decision and quantifies what changes
without it:

* :func:`tti_alignment` — migrating at an arbitrary instant instead of a
  TTI boundary lets the RU receive same-slot packets from two PHYs (a
  protocol violation the RU counts).
* :func:`detector_timeout_sweep` — a timeout below the healthy maximum
  inter-packet gap false-positives; a large one inflates dropped TTIs.
* :func:`software_vs_switch_middlebox` — the DPDK middlebox's latency,
  radius, CPU, and NIC costs vs the in-switch design's ~0.
* :func:`null_vs_duplicate_fapi` — CPU cost of the standby under null
  FAPI vs duplicated real work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.software_mbox import TAIL_PERCENTILE, SoftwareMiddleboxModel
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.core.failure_detector import DetectorConfig
from repro.sim.units import US, seconds

#: Seeds per :func:`tti_alignment` variant; conflicting slots are summed.
ALIGNMENT_TRIALS = 3
#: :func:`detector_timeout_sweep`'s timeouts, around the healthy-gap envelope.
SWEEP_TIMEOUTS_US = (250.0, 350.0, 450.0, 900.0, 1800.0)
#: Measured standby-CPU window of :func:`null_vs_duplicate_fapi`.
DUPLICATE_RUN_S = 2.0


@dataclass
class TtiAlignmentResult:
    aligned_conflicting_slots: int
    unaligned_conflicting_slots: int


def tti_alignment(seed: int = 0) -> TtiAlignmentResult:
    """Compare aligned vs immediate (unaligned) migration execution."""

    def run_one(align: bool, trial_seed: int) -> int:
        config = CellConfig(
            seed=trial_seed,
            ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
        )
        cell = build_slingshot_cell(config)
        cell.middlebox.config.align_to_tti = align
        cell.run_for(seconds(0.5))
        # Migrate mid-slot (worst case for the unaligned variant).
        cell.sim.schedule(130 * US, cell.planned_migration)
        cell.run_for(seconds(0.3))
        return cell.ru.stats.conflicting_source_slots

    aligned = sum(run_one(True, seed + i) for i in range(ALIGNMENT_TRIALS))
    unaligned = sum(run_one(False, seed + 100 + i) for i in range(ALIGNMENT_TRIALS))
    return TtiAlignmentResult(
        aligned_conflicting_slots=aligned, unaligned_conflicting_slots=unaligned
    )


@dataclass
class TimeoutSweepPoint:
    timeout_us: float
    false_positives: int
    detection_latency_us: Optional[float]


def detector_timeout_sweep(seed: int = 0) -> List[TimeoutSweepPoint]:
    """Sweep the detector timeout around the healthy-gap envelope."""
    points: List[TimeoutSweepPoint] = []
    for timeout_us in SWEEP_TIMEOUTS_US:
        config = CellConfig(
            seed=seed,
            ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
        )
        cell = build_slingshot_cell(config)
        cell.middlebox.reconfigure_detector(
            DetectorConfig(timeout_ns=round(timeout_us * US))
        )
        # Keep the primary monitored (deployment arms it a few slots in).
        cell.sim.schedule(
            6 * cell.slot_ns,
            cell.middlebox.detector.set_monitor,
            0,
            True,
        )
        # Healthy phase: count false positives.
        cell.run_for(seconds(1.5))
        false_positives = cell.trace.count("mbox.failure_detected")
        # Kill phase: measure latency (only meaningful without FPs).
        kill_at = cell.sim.now + 123 * US
        cell.kill_phy_at(0, kill_at)
        cell.run_for(seconds(0.3))
        detections = cell.trace.events("mbox.failure_detected")
        latency = None
        for event in detections:
            if event.time >= kill_at:
                latency = (event.time - kill_at) / US
                break
        points.append(
            TimeoutSweepPoint(
                timeout_us=timeout_us,
                false_positives=false_positives,
                detection_latency_us=latency,
            )
        )
    return points


@dataclass
class MiddleboxComparison:
    software_p99999_latency_us: float
    software_radius_reduction: float
    software_cpu_fraction: float
    software_nic_multiplier: float
    switch_added_latency_us: float


def software_vs_switch_middlebox(seed: int = 0) -> MiddleboxComparison:
    """Quantify §5's argument for the in-switch design."""
    model = SoftwareMiddleboxModel(rng=np.random.default_rng(seed))
    return MiddleboxComparison(
        software_p99999_latency_us=model.added_latency_percentile_ns(TAIL_PERCENTILE) / 1e3,
        software_radius_reduction=model.radius_reduction_fraction(),
        software_cpu_fraction=model.cpu_overhead_fraction(),
        software_nic_multiplier=model.nic_bandwidth_multiplier(),
        # Tofino adds ~hundreds of ns; against a 100 us budget it is ~0.
        switch_added_latency_us=0.4,
    )


@dataclass
class NullVsDuplicateResult:
    null_secondary_fraction: float
    duplicate_secondary_fraction: float


def null_vs_duplicate_fapi(seed: int = 0) -> NullVsDuplicateResult:
    """Measure standby CPU with null FAPI, and with duplicated work.

    The duplicate variant steers real (not null) requests to the
    standby, reproducing the naive approach §6.2 rejects.
    """
    from repro.apps.iperf import UdpIperfUplink

    def run_variant(duplicate: bool, variant_seed: int) -> float:
        config = CellConfig(
            seed=variant_seed,
            ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=15.0)],
        )
        cell = build_slingshot_cell(config)
        if duplicate:
            # Real requests reach the standby, so it must never sleep: a
            # dormant standby's counterparts are booked as nulls.
            for server in cell.phy_servers:
                server.phy.dormancy = None
            orion = cell.l2_orion
            orion._null_counterpart = lambda message: message  # type: ignore[assignment]
        flow = UdpIperfUplink(
            cell.sim, cell.server, cell.ue(1), "load", bearer_id=1, bitrate_bps=12e6
        )
        cell.run_for(seconds(0.3))
        flow.start()
        primary, secondary = cell.phy_servers[0].phy, cell.phy_servers[1].phy
        busy0 = (primary.cpu.busy_core_us, secondary.cpu.busy_core_us)
        cell.run_for(seconds(DUPLICATE_RUN_S))
        primary_busy = primary.cpu.busy_core_us - busy0[0]
        secondary_busy = secondary.cpu.busy_core_us - busy0[1]
        return secondary_busy / max(primary_busy, 1e-9)

    return NullVsDuplicateResult(
        null_secondary_fraction=run_variant(False, seed),
        duplicate_secondary_fraction=run_variant(True, seed + 1),
    )
