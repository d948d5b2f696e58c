"""Point-to-point links with latency and serialization delay.

Each link direction models: serialization at the sender's line rate,
fixed propagation/processing latency, and FIFO ordering. The fronthaul
fiber, inter-server 100 GbE links, and the core-network uplink are all
instances with different parameters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Protocol

from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.units import SECOND


class NetworkEndpoint(Protocol):
    """Anything that can receive an Ethernet frame from a link."""

    def receive_frame(self, frame: EthernetFrame, ingress: "Link") -> None:
        """Handle an arriving frame. ``ingress`` identifies the delivering link."""


class LinkImpairmentHook(Protocol):
    """Fault-injection hook invoked once per transmitted frame.

    ``active_from_ns`` is the earliest instant at which it may touch a
    frame. ``on_transmit`` returns the deliveries to schedule as
    ``(arrival_time, frame)`` pairs: an empty list drops the frame, two
    entries duplicate it, a shifted time reorders it, and a substituted
    frame corrupts it. The unimpaired behaviour is ``[(arrival, frame)]``.
    """

    active_from_ns: int

    def on_transmit(
        self, link: "Link", frame: EthernetFrame, arrival: int
    ) -> "list[tuple[int, EthernetFrame]]":
        """Decide the fate of one frame whose nominal arrival is ``arrival``."""


class Link:
    """One direction of a network link.

    Parameters
    ----------
    sim:
        The shared simulator.
    endpoint:
        Receiver of frames pushed into this link.
    bandwidth_bps:
        Line rate in bits/second; 0 disables serialization delay.
    latency_ns:
        Fixed one-way latency (propagation + PHY/MAC processing).
    name:
        Human-readable label for traces.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: Optional[NetworkEndpoint] = None,
        bandwidth_bps: float = 100e9,
        latency_ns: int = 1_000,
        name: str = "link",
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.bandwidth_bps = bandwidth_bps
        self.latency_ns = latency_ns
        self.name = name
        #: Time at which the sender's line becomes free again.
        self._line_free_at = 0
        #: Counters for accounting (used by overhead analyses).
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Optional fault-injection hook (see :class:`LinkImpairmentHook`).
        self.impairment: Optional[LinkImpairmentHook] = None
        self._deliver_label = f"{name}.deliver"
        self._deferred_label = f"{name}.send"
        #: Frames an impaired link holds until their ready instant, FIFO
        #: (created by the first one: most links never carry a hook).
        self._deferred: Optional[Deque[EthernetFrame]] = None
        #: Serialization delay per frame size seen (the rate is fixed).
        self._serialization_ns: Dict[int, int] = {}

    def connect(self, endpoint: NetworkEndpoint) -> None:
        """Attach the receiving endpoint (allows two-phase wiring)."""
        self.endpoint = endpoint

    def serialization_delay_ns(self, wire_bytes: int) -> int:
        """Time to clock ``wire_bytes`` onto the line at the link rate."""
        if self.bandwidth_bps <= 0:
            return 0
        return round(wire_bytes * 8 * SECOND / self.bandwidth_bps)

    def send(self, frame: EthernetFrame, ready_at: Optional[int] = None) -> int:
        """Transmit a frame; returns its scheduled arrival time.

        Serialization is FIFO: a frame cannot start until the previous one
        has fully left the sender. ``ready_at`` is a future instant at
        which the sender will have the frame (a switch port knows it at
        ingress: now plus the constant pipeline latency); serialization
        starts at ``max(ready_at, line free)`` with no event in between,
        which is exact while ready times arrive in non-decreasing order
        (one producer adding a constant to the clock). An impairment hook
        reads the clock and draws its RNG at transmit time, so once its
        earliest window can be open (``ready_at >= active_from_ns``) an
        impaired link waits for ``ready_at`` in an event and returns
        ``ready_at``; waiting frames queue FIFO and each event takes the
        head, so same-nanosecond frames keep their order under any tie
        order. Before that a hook touches nothing, and the link sends as
        an unimpaired one — wherever the hook was attached.
        """
        if self.endpoint is None:
            raise RuntimeError(f"link {self.name} has no endpoint")
        sim = self.sim
        start = sim.now
        if ready_at is not None and ready_at > start:
            impairment = self.impairment
            if impairment is not None and ready_at >= impairment.active_from_ns:
                if self._deferred is None:
                    self._deferred = deque()
                self._deferred.append(frame)
                sim.at(ready_at, self._send_deferred, label=self._deferred_label)
                return ready_at
            start = ready_at
        if self._line_free_at > start:
            start = self._line_free_at
        wire_bytes = frame.wire_bytes
        delay = self._serialization_ns.get(wire_bytes)
        if delay is None:
            delay = self._serialization_ns[wire_bytes] = self.serialization_delay_ns(
                wire_bytes
            )
        tx_done = start + delay
        self._line_free_at = tx_done
        arrival = tx_done + self.latency_ns
        self.frames_sent += 1
        self.bytes_sent += wire_bytes
        if self.impairment is not None:
            for when, delivered in self.impairment.on_transmit(self, frame, arrival):
                sim.at(when, self._deliver, delivered, label=self._deliver_label)
            return arrival
        sim.at(arrival, self._deliver, frame, label=self._deliver_label)
        return arrival

    def _send_deferred(self) -> None:
        assert self._deferred is not None
        self.send(self._deferred.popleft())

    def _deliver(self, frame: EthernetFrame) -> None:
        assert self.endpoint is not None
        self.endpoint.receive_frame(frame, ingress=self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        gbps = self.bandwidth_bps / 1e9
        return f"<Link {self.name} {gbps:g}Gbps {self.latency_ns}ns>"


class DuplexLink:
    """Convenience pair of opposite-direction :class:`Link` instances."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 100e9,
        latency_ns: int = 1_000,
        name: str = "duplex",
    ) -> None:
        self.forward = Link(sim, None, bandwidth_bps, latency_ns, f"{name}.fwd")
        self.reverse = Link(sim, None, bandwidth_bps, latency_ns, f"{name}.rev")

    def connect(self, a: NetworkEndpoint, b: NetworkEndpoint) -> None:
        """Wire ``a -> forward -> b`` and ``b -> reverse -> a``."""
        self.forward.connect(b)
        self.reverse.connect(a)
