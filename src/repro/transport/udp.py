"""UDP flows.

A :class:`UdpSender` paces constant-bitrate datagrams; a :class:`UdpSink`
measures goodput in fixed bins and tracks sequence gaps for loss
accounting. These two implement the iperf-UDP and bitrate measurements
of Figs 8/10/11 and Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.units import MS, SECOND
from repro.transport.packet import FlowDirection, Packet

#: Datagram size of every UDP flow (iperf's default payload).
PACKET_BYTES = 1200


@dataclass
class UdpFlowStats:
    """Aggregate flow counters."""

    packets_sent: int = 0
    packets_received: int = 0
    bytes_received: int = 0
    duplicates: int = 0

    @property
    def packets_lost(self) -> int:
        return max(self.packets_sent - self.packets_received - self.duplicates, 0)

    @property
    def loss_rate(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent


class UdpSender(Process):
    """Constant-bitrate UDP datagram source.

    ``transmit`` is the egress function (UE uplink enqueue, or app-server
    downlink send); the sender paces packets of :data:`PACKET_BYTES` so
    the offered load matches ``bitrate_bps``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        ue_id: int,
        bearer_id: int,
        direction: FlowDirection,
        transmit: Callable[[Packet], None],
        bitrate_bps: float,
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"udp-tx:{flow_id}")
        self.flow_id = flow_id
        self.ue_id = ue_id
        self.bearer_id = bearer_id
        self.direction = direction
        self.transmit = transmit
        self.bitrate_bps = bitrate_bps
        self.stats = UdpFlowStats()
        self._seq = 0
        self._running = False

    @property
    def interval_ns(self) -> int:
        return max(1, round(PACKET_BYTES * 8 * SECOND / self.bitrate_bps))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # First packet at start time; order-independent (tie-shuffle clean).
        self.sim.schedule(0, self._send_next)

    def stop(self) -> None:
        self._running = False

    def _send_next(self) -> None:
        if not self._running:
            return
        packet = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue_id,
            bearer_id=self.bearer_id,
            direction=self.direction,
            payload=None,
            size_bytes=PACKET_BYTES,
            created_ns=self.sim.now,
            seq=self._seq,
        )
        self._seq += 1
        self.stats.packets_sent += 1
        self.transmit(packet)
        self.sim.schedule(self.interval_ns, self._send_next)


class UdpSink:
    """Receiver-side measurement: binned goodput + loss/latency tracking."""

    def __init__(self, sim: Simulator, flow_id: str, bin_ns: int = 10 * MS) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.bin_ns = bin_ns
        self.stats = UdpFlowStats()
        #: bytes received per bin index (bin = arrival_time // bin_ns).
        self.bins: Dict[int, int] = {}
        #: packets received per bin index.
        self.bin_packets: Dict[int, int] = {}
        self._seen_max_seq = -1
        self._seen: set = set()
        self.latencies_ns: List[int] = []

    def on_packet(self, packet: Packet) -> None:
        if packet.seq in self._seen:
            self.stats.duplicates += 1
            return
        self._seen.add(packet.seq)
        if len(self._seen) > 100_000:
            # Keep the dedup window bounded.
            cutoff = max(self._seen) - 50_000
            self._seen = {s for s in self._seen if s > cutoff}
        self._seen_max_seq = max(self._seen_max_seq, packet.seq)
        self.stats.packets_received += 1
        self.stats.bytes_received += packet.size_bytes
        index = self.sim.now // self.bin_ns
        self.bins[index] = self.bins.get(index, 0) + packet.size_bytes
        self.bin_packets[index] = self.bin_packets.get(index, 0) + 1
        self.latencies_ns.append(self.sim.now - packet.created_ns)

    def throughput_series(
        self, start_ns: int, end_ns: int
    ) -> List[Tuple[float, float]]:
        """(bin start in ms, Mbps) samples over [start, end)."""
        series = []
        first = start_ns // self.bin_ns
        last = (end_ns - 1) // self.bin_ns
        for index in range(first, last + 1):
            bytes_in_bin = self.bins.get(index, 0)
            mbps = bytes_in_bin * 8 / (self.bin_ns / SECOND) / 1e6
            series.append((index * self.bin_ns / MS, mbps))
        return series

    def min_max_bin_mbps(self, start_ns: int, end_ns: int) -> Tuple[float, float]:
        """Min and max per-bin throughput over a window (Table 2 rows)."""
        series = [mbps for _, mbps in self.throughput_series(start_ns, end_ns)]
        if not series:
            return 0.0, 0.0
        return min(series), max(series)

    def blackout_bins(self, start_ns: int, end_ns: int) -> int:
        """Bins with zero received bytes in the window (Table 2 row 1)."""
        return sum(
            1 for _, mbps in self.throughput_series(start_ns, end_ns) if mbps == 0.0
        )
