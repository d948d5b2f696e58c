"""iperf-style throughput measurement flows.

Four ready-made wirings binding a sender, a receiver, and the UE/server
endpoints for each (transport, direction) combination used in Fig 10 and
Table 2. Receivers bin goodput at 10 ms — the paper's reporting interval
and the granularity of its sub-10 ms availability target.
"""

from __future__ import annotations

from repro.apps.dispatch import FlowDispatch, UplinkTransmit
from repro.corenet.server import AppServer
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.transport.packet import FlowDirection, Packet
from repro.transport.tcp import TcpReceiver, TcpSegment, TcpSender
from repro.transport.udp import UdpSender, UdpSink
from repro.ue.ue import UserEquipment


class UdpIperfDownlink:
    """Server -> UE constant-bitrate UDP flow with UE-side measurement."""

    def __init__(
        self,
        sim: Simulator,
        server: AppServer,
        ue: UserEquipment,
        flow_id: str,
        bearer_id: int,
        bitrate_bps: float,
    ) -> None:
        self.sink = UdpSink(sim, flow_id)
        self.sender = UdpSender(
            sim,
            flow_id,
            ue.ue_id,
            bearer_id,
            FlowDirection.DOWNLINK,
            transmit=server.send_to_ue,
            bitrate_bps=bitrate_bps,
        )
        ue.dl_sink = FlowDispatch(flow_id, self.sink.on_packet, ue.dl_sink)

    def start(self) -> None:
        self.sender.start()

    def stop(self) -> None:
        self.sender.stop()


class UdpIperfUplink:
    """UE -> server constant-bitrate UDP flow with server-side measurement."""

    def __init__(
        self,
        sim: Simulator,
        server: AppServer,
        ue: UserEquipment,
        flow_id: str,
        bearer_id: int,
        bitrate_bps: float,
        bin_ns: int = 10 * MS,
    ) -> None:
        self.sink = UdpSink(sim, flow_id, bin_ns=bin_ns)
        self.sender = UdpSender(
            sim,
            flow_id,
            ue.ue_id,
            bearer_id,
            FlowDirection.UPLINK,
            transmit=UplinkTransmit(ue, bearer_id),
            bitrate_bps=bitrate_bps,
        )
        server.register_flow(flow_id, self.sink.on_packet)

    def start(self) -> None:
        self.sender.start()

    def stop(self) -> None:
        self.sender.stop()


class TcpIperfDownlink:
    """Server -> UE bulk TCP flow; goodput measured at the UE receiver."""

    def __init__(
        self,
        sim: Simulator,
        server: AppServer,
        ue: UserEquipment,
        flow_id: str,
        bearer_id: int,
    ) -> None:
        self.sender = TcpSender(
            sim,
            flow_id,
            ue.ue_id,
            bearer_id,
            FlowDirection.DOWNLINK,
            transmit=server.send_to_ue,
        )
        self.receiver = TcpReceiver(
            sim,
            flow_id,
            ue.ue_id,
            bearer_id,
            ack_direction=FlowDirection.UPLINK,
            transmit_ack=UplinkTransmit(ue, bearer_id),
        )
        ue.dl_sink = FlowDispatch(flow_id, self._on_dl_packet, ue.dl_sink)
        server.register_flow(flow_id, self._on_server_packet)

    def _on_dl_packet(self, packet: Packet) -> None:
        if isinstance(packet.payload, TcpSegment):
            self.receiver.on_segment(packet.payload)

    def _on_server_packet(self, packet: Packet) -> None:
        if isinstance(packet.payload, TcpSegment):
            self.sender.on_ack(packet.payload)

    def start(self) -> None:
        self.sender.start()

    def stop(self) -> None:
        self.sender.stop()


class TcpIperfUplink:
    """UE -> server bulk TCP flow; goodput measured at the server receiver."""

    def __init__(
        self,
        sim: Simulator,
        server: AppServer,
        ue: UserEquipment,
        flow_id: str,
        bearer_id: int,
    ) -> None:
        self.sender = TcpSender(
            sim,
            flow_id,
            ue.ue_id,
            bearer_id,
            FlowDirection.UPLINK,
            transmit=UplinkTransmit(ue, bearer_id),
        )
        self.receiver = TcpReceiver(
            sim,
            flow_id,
            ue.ue_id,
            bearer_id,
            ack_direction=FlowDirection.DOWNLINK,
            transmit_ack=self._send_ack_downlink,
        )
        self._server = None
        self._ue = ue
        self._flow_id = flow_id
        server.register_flow(flow_id, self._on_server_packet)
        self._server = server
        ue.dl_sink = FlowDispatch(flow_id, self._on_dl_ack, ue.dl_sink)

    def _on_dl_ack(self, packet: Packet) -> None:
        if isinstance(packet.payload, TcpSegment):
            self.sender.on_ack(packet.payload)

    def _send_ack_downlink(self, packet: Packet) -> None:
        if self._server is not None:
            self._server.send_to_ue(packet)

    def _on_server_packet(self, packet: Packet) -> None:
        if isinstance(packet.payload, TcpSegment):
            self.receiver.on_segment(packet.payload)

    def start(self) -> None:
        self.sender.start()

    def stop(self) -> None:
        self.sender.stop()
