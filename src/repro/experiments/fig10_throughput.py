"""Fig 10 — TCP/UDP throughput through failover and planned migration.

Paper results (single UE, 10 ms bins):

* **Downlink** (Fig 10a): neither TCP nor UDP shows noticeable
  degradation at failover — DL HARQ state lives in the UE, and the few
  lost TTIs are recovered by retransmission layers.
* **Uplink** (Fig 10b): UDP dips (15.8 -> 7.4 Mb/s) and recovers within
  20 ms; TCP goes to zero for ~80 ms and recovers fully 110 ms after
  the failure, with a catch-up burst (~157 Mb/s) when the UE's TCP
  stack retransmits the lost window. A *planned* migration shows no
  drop at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.iperf import (
    TcpIperfDownlink,
    TcpIperfUplink,
    UdpIperfDownlink,
    UdpIperfUplink,
)
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import s_to_ns, seconds

#: The goodput bin of every flow here (the receivers' 10 ms).
BIN_MS = 10.0
#: Recovered = back above this fraction of the pre-event mean.
RECOVERY_FRACTION = 0.7
#: Post-event window of :meth:`ThroughputTrace.min_after_event_mbps`.
AFTER_EVENT_MS = 200.0


@dataclass
class ThroughputTrace:
    """One flow's binned goodput around the resilience event."""

    label: str
    #: (bin start ms, Mbps) series, absolute simulation time.
    series: List[Tuple[float, float]]
    event_time_ms: float

    def zero_window_ms(self) -> float:
        """Longest run of zero-throughput bins after the event."""
        longest = 0
        current = 0
        for t, mbps in self.series:
            if t < self.event_time_ms:
                continue
            if mbps == 0.0:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        return longest * BIN_MS

    def recovery_ms(self) -> Optional[float]:
        """Time from the event until throughput is back above
        :data:`RECOVERY_FRACTION` of its pre-event mean."""
        before = [m for t, m in self.series if t < self.event_time_ms - 20.0]
        if not before:
            return None
        target = RECOVERY_FRACTION * (sum(before) / len(before))
        for t, mbps in self.series:
            if t >= self.event_time_ms and mbps >= target:
                return t - self.event_time_ms
        return None

    def min_after_event_mbps(self) -> float:
        vals = [
            m
            for t, m in self.series
            if self.event_time_ms <= t < self.event_time_ms + AFTER_EVENT_MS
        ]
        return min(vals) if vals else 0.0


@dataclass
class Fig10Result:
    downlink_udp: ThroughputTrace
    downlink_tcp: ThroughputTrace
    uplink_udp: ThroughputTrace
    uplink_tcp: ThroughputTrace
    uplink_tcp_planned: ThroughputTrace


def _single_ue_config(seed: int) -> CellConfig:
    """Fig 10 uses one stationary UE 'to measure throughput in an
    isolated setting'; the fade process is disabled so the plots isolate
    the resilience event (fades are exercised by Fig 9 / the channel
    tests instead)."""
    return CellConfig(
        seed=seed,
        ue_profiles=[
            UeProfile(
                ue_id=1, name="UE", mean_snr_db=17.0,
                shadow_sigma_db=0.6, fade_probability=0.0,
            )
        ],
    )


def _run_flow(
    kind: str,
    direction: str,
    planned: bool,
    duration_s: float,
    event_at_s: float,
    udp_bitrate_bps: float,
    seed: int,
) -> ThroughputTrace:
    cell = build_slingshot_cell(_single_ue_config(seed))
    ue = cell.ue(1)
    if kind == "udp" and direction == "dl":
        flow = UdpIperfDownlink(
            cell.sim, cell.server, ue, "iperf", 1, bitrate_bps=udp_bitrate_bps
        )
        series_source = flow.sink
    elif kind == "udp" and direction == "ul":
        flow = UdpIperfUplink(
            cell.sim, cell.server, ue, "iperf", 1, bitrate_bps=udp_bitrate_bps
        )
        series_source = flow.sink
    elif kind == "tcp" and direction == "dl":
        # TCP rides the UM bearer, as in the paper's testbed: radio
        # losses reach TCP itself rather than being masked by RLC AM
        # (the paper attributes the recovery burst to "the lost packets
        # retransmitted by the UE's TCP stack").
        flow = TcpIperfDownlink(cell.sim, cell.server, ue, "iperf", 1)
        series_source = flow.receiver
    else:
        flow = TcpIperfUplink(cell.sim, cell.server, ue, "iperf", 1)
        series_source = flow.receiver
    cell.run_for(seconds(0.2))
    flow.start()
    if planned:
        cell.sim.at(s_to_ns(event_at_s), cell.planned_migration)
    else:
        cell.kill_phy_at(0, s_to_ns(event_at_s))
    cell.run_until(seconds(duration_s))
    series = series_source.throughput_series(s_to_ns(0.4), s_to_ns(duration_s))
    label = f"{direction.upper()} {kind.upper()}" + (" planned" if planned else "")
    return ThroughputTrace(
        label=label, series=series, event_time_ms=event_at_s * 1000.0
    )


def run(
    duration_s: float = 2.0,
    event_at_s: float = 1.2,
    udp_dl_bitrate_bps: float = 80e6,
    udp_ul_bitrate_bps: float = 15.8e6,
    seed: int = 0,
) -> Fig10Result:
    """Run all five flows of Fig 10 (each on a fresh cell)."""
    return Fig10Result(
        downlink_udp=_run_flow(
            "udp", "dl", False, duration_s, event_at_s, udp_dl_bitrate_bps, seed
        ),
        downlink_tcp=_run_flow(
            "tcp", "dl", False, duration_s, event_at_s, 0.0, seed + 1
        ),
        uplink_udp=_run_flow(
            "udp", "ul", False, duration_s, event_at_s, udp_ul_bitrate_bps, seed + 2
        ),
        uplink_tcp=_run_flow("tcp", "ul", False, duration_s, event_at_s, 0.0, seed + 3),
        uplink_tcp_planned=_run_flow(
            "tcp", "ul", True, duration_s, event_at_s, 0.0, seed + 4
        ),
    )


def summarize(result: Fig10Result) -> str:
    lines = ["Fig 10 — throughput across resilience events (10 ms bins)"]
    for trace in (
        result.downlink_udp,
        result.downlink_tcp,
        result.uplink_udp,
        result.uplink_tcp,
        result.uplink_tcp_planned,
    ):
        recovery = trace.recovery_ms()
        lines.append(
            f"  {trace.label:16s}: zero-window {trace.zero_window_ms():5.0f} ms, "
            f"min(after) {trace.min_after_event_mbps():5.1f} Mbps, "
            f"recovery {'-' if recovery is None else f'{recovery:.0f} ms'}"
        )
    lines.append(
        "  paper: DL unaffected; UL UDP recovers <=20 ms; UL TCP zero ~80 ms, "
        "full at 110 ms; planned migration no drop"
    )
    return "\n".join(lines)
