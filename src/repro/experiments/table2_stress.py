"""Table 2 — stress test for discarding PHY state.

Paper result: migrating PHY processing back and forth between the two
servers at extreme rates (1..50 migrations/second) for 60 s while an
uplink UDP flow runs, Slingshot keeps network downtime under the 10 ms
target at up to 20 migrations/s — despite interrupting over a hundred
in-flight HARQ sequences — and only the absurd 50/s rate produces
10 ms blackout intervals. Reported per rate: number of 10 ms blackout
bins, min/max per-10 ms throughput, max per-10 ms packet loss, HARQ
sequences interrupted, and the average UDP loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.iperf import UdpIperfUplink
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import MS, SECOND, s_to_ns, seconds
from repro.transport.udp import PACKET_BYTES


@dataclass
class StressRow:
    """One row (column in the paper's layout) of Table 2."""

    migrations_per_s: float
    blackout_bins_10ms: int
    min_tput_mbps_per_10ms: float
    max_tput_mbps_per_10ms: float
    max_pkt_loss_per_10ms: float
    interrupted_harq_seqs: int
    avg_loss_rate: float
    migrations_executed: int


@dataclass
class Table2Result:
    rows: List[StressRow]
    duration_s: float


def _run_rate(
    migrations_per_s: float,
    duration_s: float,
    offered_bps: float,
    seed: int,
) -> StressRow:
    # A stationary, fade-free UE (migration effects isolated from natural
    # fades) at a commercial link-adaptation operating point: ~10 %
    # initial BLER, where HARQ soft combining genuinely carries decodes
    # — so a migration that discards the soft buffer has a real cost.
    config = CellConfig(
        seed=seed,
        ue_profiles=[
            UeProfile(
                ue_id=1, name="UE", mean_snr_db=8.9,
                shadow_sigma_db=0.3, fade_probability=0.0,
            )
        ],
    )
    cell = build_slingshot_cell(config)
    flow = UdpIperfUplink(
        cell.sim, cell.server, cell.ue(1), "stress", bearer_id=1,
        bitrate_bps=offered_bps,
    )
    cell.run_for(seconds(0.3))
    flow.start()
    start_ns = cell.sim.now + s_to_ns(0.2)
    end_ns = start_ns + s_to_ns(duration_s)
    # Schedule back-and-forth planned migrations at the target rate.
    interval_ns = round(SECOND / migrations_per_s)
    t = start_ns
    while t < end_ns - interval_ns:
        cell.sim.at(t, cell.planned_migration)
        t += interval_ns
    harq_before = _interrupted_harq(cell)
    cell.run_until(end_ns + seconds(0.1))
    min_mbps, max_mbps = flow.sink.min_max_bin_mbps(start_ns, end_ns)
    blackouts = flow.sink.blackout_bins(start_ns, end_ns)
    # Per-10ms packet loss: compare offered packets per bin to received.
    offered_per_bin = offered_bps / 8 / PACKET_BYTES * 0.01
    worst_loss = 0.0
    first_bin = start_ns // (10 * MS)
    last_bin = (end_ns - 1) // (10 * MS)
    for index in range(first_bin, last_bin + 1):
        got = flow.sink.bin_packets.get(index, 0)
        loss = max(0.0, 1.0 - got / max(offered_per_bin, 1e-9))
        worst_loss = max(worst_loss, loss)
    return StressRow(
        migrations_per_s=migrations_per_s,
        blackout_bins_10ms=blackouts,
        min_tput_mbps_per_10ms=min_mbps,
        max_tput_mbps_per_10ms=max_mbps,
        max_pkt_loss_per_10ms=worst_loss,
        interrupted_harq_seqs=_interrupted_harq(cell) - harq_before,
        avg_loss_rate=flow.sink.stats.loss_rate,
        migrations_executed=cell.middlebox.stats.migrations_executed,
    )


def _interrupted_harq(cell) -> int:
    """HARQ sequences broken mid-flight across both PHYs (Table 2 row 5).

    A migration interrupts a HARQ sequence when a retransmission arrives
    at a PHY whose soft buffer never saw the original — counted by the
    HARQ pool — or when the L2 sees a grant's sequence die to DTX during
    the blackout.
    """
    phy_side = sum(
        node.phy.codec.harq.stats.lost_to_migration for node in cell.phy_servers
    )
    return phy_side + cell.l2.stats.ul_dtx_timeouts


def run(
    rates_per_s: Optional[List[float]] = None,
    duration_s: float = 60.0,
    offered_bps: float = 16e6,
    seed: int = 0,
) -> Table2Result:
    """Run the stress campaign (paper rates: 1, 10, 20, 50 per second)."""
    rates = rates_per_s if rates_per_s is not None else [1.0, 10.0, 20.0, 50.0]
    rows = [
        _run_rate(rate, duration_s, offered_bps, seed + i)
        for i, rate in enumerate(rates)
    ]
    return Table2Result(rows=rows, duration_s=duration_s)


def summarize(result: Table2Result) -> str:
    lines = [
        f"Table 2 — PHY-state-discard stress test ({result.duration_s:.0f} s "
        f"uplink UDP, planned migrations)"
    ]
    header = (
        "  rate/s  blackout-10ms  min-tput  max-tput  max-loss/10ms  "
        "interrupted-HARQ  avg-loss"
    )
    lines.append(header)
    for row in result.rows:
        lines.append(
            f"  {row.migrations_per_s:6.0f}  {row.blackout_bins_10ms:13d}  "
            f"{row.min_tput_mbps_per_10ms:7.1f}M  {row.max_tput_mbps_per_10ms:7.1f}M  "
            f"{row.max_pkt_loss_per_10ms:12.0%}  {row.interrupted_harq_seqs:16d}  "
            f"{row.avg_loss_rate:8.2%}"
        )
    lines.append(
        "  paper: 0 blackout bins up to 20/s; 11 bins at 50/s; "
        "loss 0.1% -> 3.9% as rate grows"
    )
    return "\n".join(lines)
