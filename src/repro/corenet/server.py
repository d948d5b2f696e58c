"""Application server.

Hosts the server side of every experiment flow (video sender, iperf
endpoints, ping client) behind the core network. The server-to-core
path models the internet/transport segment of the paper's testbed; its
latency is the dominant share of the ~22.8 ms median UE ping (§8.7).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.corenet.core import CoreNetwork
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.units import MS
from repro.transport.packet import Packet


class AppServer(Process):
    """The experiment application server, reachable through the core."""

    def __init__(
        self,
        sim: Simulator,
        core: CoreNetwork,
        latency_to_core_ns: int = 6 * MS,
        name: str = "appserver",
    ) -> None:
        super().__init__(sim, name)
        self.core = core
        self.latency_to_core_ns = latency_to_core_ns
        #: Per-flow uplink packet handlers.
        self._handlers: Dict[str, Callable[[Packet], None]] = {}
        core.uplink_handler = self._dispatch_uplink
        self.packets_sent = 0
        self.packets_received = 0

    def register_flow(self, flow_id: str, handler: Callable[[Packet], None]) -> None:
        """Route uplink packets of ``flow_id`` to ``handler``."""
        self._handlers[flow_id] = handler

    def send_to_ue(self, packet: Packet) -> None:
        """Send one downlink packet toward its UE via the core."""
        self.packets_sent += 1
        self.sim.schedule(self.latency_to_core_ns, self.core.send_downlink, packet)

    def _dispatch_uplink(self, packet: Packet) -> None:
        self.sim.schedule(self.latency_to_core_ns, self._deliver_local, packet)

    def _deliver_local(self, packet: Packet) -> None:
        self.packets_received += 1
        handler = self._handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet)
