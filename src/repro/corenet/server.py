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

#: One-way latency between the app server and the core.
LATENCY_TO_CORE_NS = 6 * MS


class AppServer(Process):
    """The experiment application server, reachable through the core."""

    def __init__(
        self,
        sim: Simulator,
        core: CoreNetwork,
        name: str = "appserver",
    ) -> None:
        super().__init__(sim, name)
        self.core = core
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
        self.sim.schedule(LATENCY_TO_CORE_NS, self.core.send_downlink, packet)

    def _dispatch_uplink(self, packet: Packet) -> None:
        self.sim.schedule(LATENCY_TO_CORE_NS, self._deliver_local, packet)

    def _deliver_local(self, packet: Packet) -> None:
        self.packets_received += 1
        handler = self._handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet)
