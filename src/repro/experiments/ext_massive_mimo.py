"""Extension — massive-MIMO migration transient (paper §10).

The paper's future-work section observes that massive-MIMO PHYs keep
inter-slot beamforming/equalization state lasting tens to hundreds of
slots, and argues that this is *still* discardable soft state: a
migrated-to PHY re-estimates, with "a possibly larger impact on UE
performance" than the small-antenna case.

This experiment quantifies that: an uplink flow runs on a UE whose base
SNR is unusable without the array gain; a planned migration discards the
beamforming state; the destination PHY reconverges one sounding at a
time. Measured: the depth and duration of the post-migration throughput
transient, versus the small-antenna (non-MIMO) deployment, and whether
connectivity survives (it must — the §10 claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.iperf import UdpIperfUplink
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import MS, s_to_ns, seconds

#: A dip is time below this fraction of the pre-migration mean.
DIP_FRACTION = 0.7


@dataclass
class MimoTransient:
    label: str
    #: (ms relative to migration, Mbps) 10 ms-binned series.
    series: List[Tuple[float, float]]
    rlf_events: int

    def dip_duration_ms(self) -> float:
        """Time below :data:`DIP_FRACTION` of the pre-migration mean."""
        before = [m for t, m in self.series if t < -30.0]
        if not before:
            return 0.0
        target = DIP_FRACTION * (sum(before) / len(before))
        below = 0.0
        for t, mbps in self.series:
            if t >= 0 and mbps < target:
                below += 10.0
            elif t >= 0 and mbps >= target and below > 0:
                break
        return below

    def min_after_mbps(self) -> float:
        after = [m for t, m in self.series if 0 <= t <= 300.0]
        return min(after) if after else 0.0


@dataclass
class MimoResult:
    massive_mimo: MimoTransient
    small_antenna: MimoTransient


def _run_variant(
    massive: bool, duration_s: float, migrate_at_s: float,
    offered_bps: float, seed: int,
) -> MimoTransient:
    # With 64 antennas the full array gain is ~18 dB; a 1 dB base SNR is
    # unusable uncombined but comfortable (~19 dB) once beamformed. The
    # small-antenna control gets the same *effective* steady-state SNR.
    profile = (
        UeProfile(ue_id=1, name="UE", mean_snr_db=1.0,
                  shadow_sigma_db=0.4, fade_probability=0.0)
        if massive
        else UeProfile(ue_id=1, name="UE", mean_snr_db=17.0,
                       shadow_sigma_db=0.4, fade_probability=0.0)
    )
    config = CellConfig(seed=seed, ue_profiles=[profile], massive_mimo=massive)
    cell = build_slingshot_cell(config)
    flow = UdpIperfUplink(
        cell.sim, cell.server, cell.ue(1), "mimo", 1, bitrate_bps=offered_bps
    )
    # Give the tracker time to converge before measuring.
    cell.run_for(seconds(0.3))
    flow.start()
    cell.sim.at(s_to_ns(migrate_at_s), cell.planned_migration)
    cell.run_until(seconds(duration_s))
    start = s_to_ns(0.5)
    series = [
        (t - migrate_at_s * 1000.0, mbps)
        for t, mbps in flow.sink.throughput_series(start, s_to_ns(duration_s))
    ]
    return MimoTransient(
        label="massive MIMO (64 antennas)" if massive else "small antenna (4T4R)",
        series=series,
        rlf_events=cell.ue(1).stats.rlf_events,
    )


def run(
    duration_s: float = 3.0,
    migrate_at_s: float = 1.8,
    offered_bps: float = 12e6,
    seed: int = 0,
) -> MimoResult:
    """Measure the migration transient with and without MIMO state."""
    return MimoResult(
        massive_mimo=_run_variant(True, duration_s, migrate_at_s, offered_bps, seed),
        small_antenna=_run_variant(False, duration_s, migrate_at_s, offered_bps, seed),
    )


def summarize(result: MimoResult) -> str:
    lines = ["§10 extension — massive-MIMO state discard transient"]
    for transient in (result.small_antenna, result.massive_mimo):
        lines.append(
            f"  {transient.label:26s}: dip {transient.dip_duration_ms():5.0f} ms, "
            f"min(after) {transient.min_after_mbps():4.1f} Mbps, "
            f"RLFs {transient.rlf_events}"
        )
    lines.append(
        "  paper (§10): beamforming matrices are still discardable soft "
        "state, 'albeit with a possibly larger impact on UE performance'"
    )
    return "\n".join(lines)
