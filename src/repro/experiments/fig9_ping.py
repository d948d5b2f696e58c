"""Fig 9 — ping latency across a PHY failover (three UEs).

Paper result: pinging three UEs every 10 ms and killing the primary PHY
mid-run, two UEs show no visible latency change and the worst (the
Samsung A52s) shows a single ~15 ms spike — indistinguishable from the
routine fluctuations visible elsewhere in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.dispatch import FlowDispatch
from repro.apps.ping import PingClient, UePingResponder
from repro.cell.config import CellConfig
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import MS, SECOND, ns_to_s, s_to_ns, seconds

#: "Near failover": within this many seconds of the kill.
SPIKE_WINDOW_S = 0.5


@dataclass
class Fig9Result:
    #: UE name -> (send time s, RTT ms) series.
    rtt_series: Dict[str, List[Tuple[float, float]]]
    #: UE name -> lost ping count.
    losses: Dict[str, int]
    failure_time_s: float
    detection_time_s: Optional[float]

    def max_spike_ms(self) -> float:
        """Largest RTT excursion above each UE's own median, near failover."""
        worst = 0.0
        for series in self.rtt_series.values():
            rtts = np.array([rtt for _, rtt in series])
            times = np.array([t for t, _ in series])
            if len(rtts) < 10:
                continue
            median = float(np.median(rtts))
            near = rtts[np.abs(times - self.failure_time_s) < SPIKE_WINDOW_S]
            if len(near):
                worst = max(worst, float(near.max() - median))
        return worst


def run(
    duration_s: float = 4.0,
    failure_at_s: float = 2.0,
    interval_ms: float = 10.0,
    seed: int = 0,
) -> Fig9Result:
    """Ping all three UEs through a failover."""
    cell = build_slingshot_cell(CellConfig(seed=seed))
    clients: Dict[str, PingClient] = {}
    for ue_id, ue in cell.ues.items():
        flow = f"ping-{ue_id}"
        responder = UePingResponder(ue, flow, bearer_id=1)
        ue.dl_sink = FlowDispatch(flow, responder.on_packet, ue.dl_sink)
        clients[ue.name] = PingClient(
            cell.sim,
            cell.server,
            ue_id=ue_id,
            flow_id=flow,
            bearer_id=1,
            interval_ns=round(interval_ms * MS),
        )
    cell.run_for(seconds(0.2))
    for client in clients.values():
        client.start()
    cell.kill_phy_at(0, s_to_ns(failure_at_s))
    cell.run_until(seconds(duration_s))
    detection = cell.trace.last("mbox.failure_detected")
    return Fig9Result(
        rtt_series={name: c.rtt_series_ms() for name, c in clients.items()},
        losses={name: c.loss_count() for name, c in clients.items()},
        failure_time_s=failure_at_s,
        detection_time_s=ns_to_s(detection.time) if detection else None,
    )


def summarize(result: Fig9Result) -> str:
    lines = ["Fig 9 — ping latency across PHY failover"]
    for name, series in result.rtt_series.items():
        rtts = np.array([rtt for _, rtt in series])
        lines.append(
            f"  {name:14s}: median {np.median(rtts):5.1f} ms, "
            f"p99 {np.percentile(rtts, 99):5.1f} ms, "
            f"lost {result.losses[name]}"
        )
    lines.append(
        f"  worst failover spike above median: {result.max_spike_ms():.1f} ms "
        f"(paper: 15 ms on the Samsung A52s)"
    )
    return "\n".join(lines)
