"""§8.5 — overhead of maintaining a hot secondary PHY.

Paper result: null FAPI requests make the secondary's marginal compute
cost negligible (FlexRAN reports no significant CPU or FEC-accelerator
increase), there is no L2 overhead (the L2 never sees the secondary),
and the null-FAPI network traffic is under 1 MB/s on the 100 GbE links.

This harness measures the same three quantities on a loaded cell. What
keeping the secondary hot by duplicating real FAPI work instead would
cost is measured by ``ablations.null_vs_duplicate_fapi``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.iperf import UdpIperfUplink
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.core.orion import UDP_OVERHEAD_BYTES
from repro.fapi.codec import wire_size
from repro.fapi.messages import null_ul_tti
from repro.sim.units import SECOND, seconds

#: One null TTI request on the inter-Orion wire: its FAPI encoding plus
#: the UDP/IP overhead. A null DL request encodes to the same size as a
#: null UL one.
NULL_WIRE_BYTES = UDP_OVERHEAD_BYTES + wire_size(null_ul_tti(0, 0))


@dataclass
class OverheadResult:
    primary_busy_core_us: float
    secondary_busy_core_us: float
    secondary_fec_decodes: int
    primary_fec_decodes: int
    null_requests: int
    null_fapi_bytes_per_s: float
    duration_s: float

    @property
    def secondary_cpu_fraction(self) -> float:
        """Secondary compute as a fraction of the primary's."""
        if self.primary_busy_core_us == 0:
            return 0.0
        return self.secondary_busy_core_us / self.primary_busy_core_us


def run(duration_s: float = 3.0, offered_bps: float = 16e6, seed: int = 0) -> OverheadResult:
    """Measure secondary-PHY overheads under uplink load."""
    config = CellConfig(
        seed=seed,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=15.0)],
    )
    cell = build_slingshot_cell(config)
    flow = UdpIperfUplink(
        cell.sim, cell.server, cell.ue(1), "load", bearer_id=1, bitrate_bps=offered_bps
    )
    cell.run_for(seconds(0.3))
    flow.start()
    primary = cell.phy_servers[0].phy
    secondary = cell.phy_servers[1].phy
    orion = cell.l2_orion
    busy0_p, busy0_s = primary.cpu.busy_core_us, secondary.cpu.busy_core_us
    fec0_p, fec0_s = primary.cpu.fec_decodes, secondary.cpu.fec_decodes
    nulls_0 = orion.stats.null_requests_sent
    start = cell.sim.now
    cell.run_for(seconds(duration_s))
    elapsed_s = (cell.sim.now - start) / SECOND
    nulls = orion.stats.null_requests_sent - nulls_0
    return OverheadResult(
        primary_busy_core_us=primary.cpu.busy_core_us - busy0_p,
        secondary_busy_core_us=secondary.cpu.busy_core_us - busy0_s,
        secondary_fec_decodes=secondary.cpu.fec_decodes - fec0_s,
        primary_fec_decodes=primary.cpu.fec_decodes - fec0_p,
        null_requests=nulls,
        null_fapi_bytes_per_s=nulls * NULL_WIRE_BYTES / elapsed_s,
        duration_s=elapsed_s,
    )


def summarize(result: OverheadResult) -> str:
    return "\n".join(
        [
            "§8.5 — hot-secondary overhead (null FAPI vs duplicate FAPI)",
            f"  primary busy: {result.primary_busy_core_us / 1e3:.1f} core-ms; "
            f"secondary busy: {result.secondary_busy_core_us / 1e3:.1f} core-ms "
            f"({result.secondary_cpu_fraction:.1%} of primary; paper: negligible)",
            f"  FEC decodes: primary {result.primary_fec_decodes}, "
            f"secondary {result.secondary_fec_decodes} (paper: no accelerator use)",
            f"  null-FAPI traffic: {result.null_fapi_bytes_per_s / 1e3:.0f} kB/s "
            f"(paper: < 1 MB/s)",
        ]
    )
