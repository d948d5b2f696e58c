"""Video-conferencing application (Fig 8's QoE workload).

A :class:`VideoSender` streams a compressed talking-head video toward a
UE at a target bitrate (the paper uses 500 kb/s): fixed frame cadence
with mildly varying frame sizes, each frame packetized into MTU-sized
chunks. The :class:`VideoReceiver` reports the received bitrate per
interval — the paper's QoE proxy — so an outage shows up as the bitrate
pinning to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.dispatch import FlowDispatch
from repro.corenet.server import AppServer
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.units import MS, SECOND
from repro.transport.packet import FlowDirection, Packet
from repro.ue.ue import UserEquipment

#: Frame cadence of the talking-head source.
FPS = 30.0
#: Largest chunk a frame is packetized into.
MTU_BYTES = 1200
#: The receiver's bitrate-reporting interval.
INTERVAL_NS = 500 * MS


@dataclass(frozen=True)
class _VideoChunk:
    frame_index: int
    chunk_index: int


class VideoSender(Process):
    """Constant-target-bitrate video source on the application server."""

    def __init__(
        self,
        sim: Simulator,
        server: AppServer,
        ue_id: int,
        flow_id: str,
        bearer_id: int,
        bitrate_bps: float,
        *,
        rng: np.random.Generator,
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"video-tx:{flow_id}")
        self.server = server
        self.ue_id = ue_id
        self.flow_id = flow_id
        self.bearer_id = bearer_id
        self.bitrate_bps = bitrate_bps
        self.rng = rng
        self._frame_index = 0
        self._seq = 0
        self._running = False
        self.frames_sent = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # First frame at start time; order-independent (tie-shuffle clean).
        self.sim.schedule(0, self._send_frame)

    def stop(self) -> None:
        self._running = False

    def _send_frame(self) -> None:
        if not self._running:
            return
        nominal = self.bitrate_bps / 8.0 / FPS
        # Encoder output varies frame to frame (talking-head content).
        frame_bytes = max(200, int(self.rng.normal(nominal, nominal * 0.15)))
        offset = 0
        chunk_index = 0
        while offset < frame_bytes:
            chunk = min(MTU_BYTES, frame_bytes - offset)
            packet = Packet(
                flow_id=self.flow_id,
                ue_id=self.ue_id,
                bearer_id=self.bearer_id,
                direction=FlowDirection.DOWNLINK,
                payload=_VideoChunk(self._frame_index, chunk_index),
                size_bytes=chunk,
                created_ns=self.sim.now,
                seq=self._seq,
            )
            self._seq += 1
            chunk_index += 1
            offset += chunk
            self.server.send_to_ue(packet)
        self._frame_index += 1
        self.frames_sent += 1
        self.sim.schedule(round(SECOND / FPS), self._send_frame)


class VideoReceiver:
    """UE-side bitrate meter (the paper's QoE proxy)."""

    def __init__(
        self,
        sim: Simulator,
        ue: UserEquipment,
        flow_id: str,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        #: bytes received per interval index.
        self.bins: Dict[int, int] = {}
        self.bytes_received = 0
        self.packets_received = 0
        ue.dl_sink = FlowDispatch(flow_id, self._on_packet, ue.dl_sink)

    def _on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        index = self.sim.now // INTERVAL_NS
        self.bins[index] = self.bins.get(index, 0) + packet.size_bytes

    def bitrate_series_kbps(self, start_ns: int, end_ns: int) -> List[Tuple[float, float]]:
        """(interval start s, received kb/s) samples over the window."""
        series = []
        first = start_ns // INTERVAL_NS
        last = (end_ns - 1) // INTERVAL_NS
        for index in range(first, last + 1):
            bytes_in_bin = self.bins.get(index, 0)
            kbps = bytes_in_bin * 8 / (INTERVAL_NS / SECOND) / 1e3
            series.append((index * INTERVAL_NS / SECOND, kbps))
        return series

    def outage_seconds(self, start_ns: int, end_ns: int) -> float:
        """Total time at zero bitrate within the window."""
        zero_bins = sum(
            1 for _, kbps in self.bitrate_series_kbps(start_ns, end_ns) if kbps == 0.0
        )
        return zero_bins * INTERVAL_NS / SECOND
