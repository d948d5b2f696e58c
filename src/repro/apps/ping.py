"""Ping (ICMP-echo-style) latency measurement.

The paper measures ping between the application server and UEs every
10 ms (Fig 9, §8.7). The client stamps requests; the UE responder echoes
them on its uplink; samples with no reply within a timeout are recorded
as losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.corenet.server import AppServer
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.units import MS, SECOND
from repro.transport.packet import FlowDirection, Packet
from repro.ue.ue import UserEquipment

#: A request unanswered this long is a loss.
TIMEOUT_NS = 2 * SECOND


@dataclass(frozen=True)
class _EchoRequest:
    ping_seq: int
    sent_ns: int


@dataclass
class PingSample:
    """One ping result (RTT in ns; None = lost/timed out)."""

    seq: int
    sent_ns: int
    rtt_ns: Optional[int]


class UePingResponder:
    """UE-side echo: bounces requests back on the uplink."""

    def __init__(self, ue: UserEquipment, flow_id: str, bearer_id: int) -> None:
        self.ue = ue
        self.flow_id = flow_id
        self.bearer_id = bearer_id

    def on_packet(self, packet: Packet) -> None:
        request = packet.payload
        if not isinstance(request, _EchoRequest):
            return
        reply = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue.ue_id,
            bearer_id=self.bearer_id,
            direction=FlowDirection.UPLINK,
            payload=request,
            size_bytes=packet.size_bytes,
            created_ns=packet.created_ns,
            seq=request.ping_seq,
        )
        self.ue.send_uplink(self.bearer_id, reply, reply.size_bytes)


class PingClient(Process):
    """Server-side ping client toward one UE."""

    #: Echo request size.
    packet_bytes = 64

    def __init__(
        self,
        sim: Simulator,
        server: AppServer,
        ue_id: int,
        flow_id: str,
        bearer_id: int,
        interval_ns: int,
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"ping:{flow_id}")
        self.server = server
        self.ue_id = ue_id
        self.flow_id = flow_id
        self.bearer_id = bearer_id
        self.interval_ns = interval_ns
        self.samples: List[PingSample] = []
        self._outstanding: Dict[int, PingSample] = {}
        self._seq = 0
        self._running = False
        server.register_flow(flow_id, self._on_reply)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # First probe at start time; order-independent (tie-shuffle clean).
        self.sim.schedule(0, self._send_next)

    def stop(self) -> None:
        self._running = False

    def _send_next(self) -> None:
        if not self._running:
            return
        sample = PingSample(seq=self._seq, sent_ns=self.sim.now, rtt_ns=None)
        self.samples.append(sample)
        self._outstanding[self._seq] = sample
        request = _EchoRequest(ping_seq=self._seq, sent_ns=self.sim.now)
        packet = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue_id,
            bearer_id=self.bearer_id,
            direction=FlowDirection.DOWNLINK,
            payload=request,
            size_bytes=self.packet_bytes,
            created_ns=self.sim.now,
            seq=self._seq,
        )
        self._seq += 1
        self.server.send_to_ue(packet)
        self.sim.schedule(self.interval_ns, self._send_next)
        # Expire long-gone requests to bound the outstanding map.
        cutoff = self.sim.now - TIMEOUT_NS
        stale = [s for s, smp in self._outstanding.items() if smp.sent_ns < cutoff]
        for seq in stale:
            del self._outstanding[seq]

    def _on_reply(self, packet: Packet) -> None:
        request = packet.payload
        if not isinstance(request, _EchoRequest):
            return
        sample = self._outstanding.pop(request.ping_seq, None)
        if sample is None:
            return
        sample.rtt_ns = self.sim.now - request.sent_ns

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def rtt_series_ms(self) -> List[tuple]:
        """(send time s, RTT ms) for answered pings."""
        return [
            (s.sent_ns / SECOND, s.rtt_ns / MS)
            for s in self.samples
            if s.rtt_ns is not None
        ]

    def loss_count(self) -> int:
        """Pings with no reply (excluding ones still in flight)."""
        horizon = self.sim.now - TIMEOUT_NS
        return sum(
            1 for s in self.samples if s.rtt_ns is None and s.sent_ns < horizon
        )
