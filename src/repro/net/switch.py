"""Edge-datacenter switch.

A :class:`Switch` owns numbered ports, each cabled to a node via a pair
of :class:`~repro.net.link.Link` objects. Forwarding is its one
pipeline's: the P4-modeled fronthaul middlebox of
:mod:`repro.core.fh_middlebox`, installed by its ``install_on``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.net.link import Link, NetworkEndpoint
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.process import Process

#: The data-plane forwarding latency (hundreds of nanoseconds on
#: Tofino-class hardware).
PIPELINE_LATENCY_NS = 400


class SwitchPort(NetworkEndpoint):
    """One switch port; receives frames from its ingress link."""

    def __init__(self, switch: "Switch", number: int) -> None:
        self.switch = switch
        self.number = number
        #: The link the attached node sends into this port, and the
        #: egress link toward it (both cabled by :meth:`Switch.attach`,
        #: the one way a port is made).
        self.ingress_link: Link
        self.egress: Link
        self.frames_in = 0
        self.frames_out = 0

    def receive_frame(self, frame: EthernetFrame, ingress: Link) -> None:
        self.frames_in += 1
        self.switch.ingress(frame, self.number)

    def absorb_dropped(self, count: int) -> None:
        """Account ``count`` frames that arrived here and were dropped
        by the pipeline, without running them (a dormant standby's
        filtered C-plane, ``core/standby.py``)."""
        self.frames_in += count
        self.switch.frames_processed += count
        self.switch.frames_dropped += count

    def absorb_forwarded(self, count: int, out: "SwitchPort") -> None:
        """Account ``count`` frames that arrived here and left by ``out``
        without running them (a dormant standby's inbound nulls, whose
        egress line takes them as elided sends)."""
        self.frames_in += count
        self.switch.frames_processed += count
        out.frames_out += count

    def transmit(self, frame: EthernetFrame) -> None:
        """Send a frame out of this port toward the attached node.

        The frame reaches the egress link one pipeline latency from now;
        the link is told so at once (``ready_at``) instead of through an
        event, and ``frames_out`` counts the frame here, at ingress.
        """
        self.frames_out += 1
        switch = self.switch
        self.egress.send(frame, switch.sim.now + switch.pipeline_latency_ns)


class Switch(Process):
    """A store-and-forward switch running one processing pipeline.

    The pipeline's ``process(frame, in_port, switch)`` returns the
    ``(egress port, frame)`` to forward — the frame possibly a rewritten
    copy (virtual-address translation) — or None to drop the frame.

    The forwarding latency (:data:`PIPELINE_LATENCY_NS`) is constant, so
    a frame's egress instant is known at ingress and forwarding costs no
    event of its own (see :meth:`Link.send`'s ``ready_at``).
    """

    def __init__(self, sim: Simulator, name: str = "switch") -> None:
        super().__init__(sim, name)
        #: The installed pipeline (``FronthaulMiddlebox.install_on``).
        self.pipeline: Any = None
        self.pipeline_latency_ns = PIPELINE_LATENCY_NS
        self._ports: Dict[int, SwitchPort] = {}
        self.frames_processed = 0
        self.frames_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        endpoint: NetworkEndpoint,
        bandwidth_bps: float = 100e9,
        latency_ns: int = 1_000,
        name: str = "",
    ) -> SwitchPort:
        """Cable a node to a new port, numbered after the last, with a
        duplex link pair.

        Returns the switch port. The node sends frames into its
        ``ingress_link``.
        """
        number = max(self._ports, default=-1) + 1
        sw_port = SwitchPort(self, number)
        label = name or getattr(endpoint, "name", f"node{number}")
        # Node -> switch direction.
        sw_port.ingress_link = Link(
            self.sim, sw_port, bandwidth_bps, latency_ns, f"{label}->{self.name}"
        )
        # Switch -> node direction.
        sw_port.egress = Link(
            self.sim, endpoint, bandwidth_bps, latency_ns, f"{self.name}->{label}"
        )
        self._ports[number] = sw_port
        return sw_port

    def port(self, number: int) -> SwitchPort:
        return self._ports[number]

    def port_numbers(self) -> List[int]:
        return sorted(self._ports)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def ingress(self, frame: EthernetFrame, in_port: int) -> None:
        """Run the pipeline on an ingress frame and forward the result."""
        self.frames_processed += 1
        decision = self.pipeline.process(frame, in_port, self)
        if decision is None:
            self.frames_dropped += 1
            return
        number, out = decision
        self._ports[number].transmit(out)

    def inject(self, frame: EthernetFrame) -> None:
        """Inject a frame into the pipeline as if received on no port
        (the packet generator)."""
        self.ingress(frame, -1)
