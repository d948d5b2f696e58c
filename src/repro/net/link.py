"""Point-to-point links with latency and serialization delay, and the
server NIC at a link's far end.

Each link direction models: serialization at the sender's line rate,
fixed propagation/processing latency, and FIFO ordering. The fronthaul
fiber, inter-server 100 GbE links, and the core-network uplink are all
instances with different parameters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Protocol, Tuple

from repro.net.packet import ETH_ECPRI, EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.units import SECOND


class NetworkEndpoint(Protocol):
    """Anything that can receive an Ethernet frame from a link."""

    def receive_frame(self, frame: EthernetFrame, ingress: "Link") -> None:
        """Handle an arriving frame. ``ingress`` identifies the delivering link."""


class ServerNic:
    """One server's NIC: demultiplexes ingress frames to local processes.

    Fronthaul (eCPRI) frames go to the PHY process; everything else
    (Orion datagrams, Slingshot notifications) goes to the Orion process.
    The builder sets both before the first event; the L2 server's NIC
    has no PHY.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.phy: Optional[NetworkEndpoint] = None
        self.orion: NetworkEndpoint

    def receive_frame(self, frame: EthernetFrame, ingress: "Link") -> None:
        if frame.ethertype == ETH_ECPRI:
            if self.phy is not None:
                self.phy.receive_frame(frame, ingress)
        else:
            self.orion.receive_frame(frame, ingress)


class LinkImpairmentHook(Protocol):
    """Fault-injection hook invoked once per transmitted frame.

    ``active_from_ns`` is the earliest instant at which it may touch a
    frame, and ``active_until_ns`` the instant from which it touches
    none. ``on_transmit`` returns the deliveries to schedule as
    ``(arrival_time, frame)`` pairs: an empty list drops the frame, two
    entries duplicate it, a shifted time reorders it, and a substituted
    frame corrupts it. The unimpaired behaviour is ``[(arrival, frame)]``.
    """

    active_from_ns: int
    active_until_ns: int

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
        endpoint: NetworkEndpoint,
        bandwidth_bps: float,
        latency_ns: int,
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
        #: Frames an impaired link holds until their ready instant, FIFO
        #: (created by the first one: most links never carry a hook).
        self._deferred: Optional[Deque[EthernetFrame]] = None
        #: Serialization delay per frame size seen (the rate is fixed).
        self._serialization_ns: Dict[int, int] = {}
        #: Elided sends not yet applied to the line, in send order, as
        #: ``(send_ns, ready_ns, wire_bytes, token)`` (see :meth:`elide`;
        #: created by the first one, with ``_elided_free_at``, when the
        #: line frees after the last one: only the lines toward and from a
        #: dormant standby have any).
        self._elided: Optional[Deque[Tuple[int, int, int, Any]]] = None
        #: Elided frames that have left the line, as ``(arrival_ns,
        #: token)``, for their owner to account at the far end.
        self.elided_departed: Optional[Deque[Tuple[int, Any]]] = None

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
        an unimpaired one — wherever the hook was attached (and the hook
        is not consulted: it would hand the frame back untouched).
        """
        sim = self.sim
        if self._elided:
            self.settle_elided(sim.now)
        start = sim.now
        if ready_at is not None and ready_at > start:
            impairment = self.impairment
            if impairment is not None and ready_at >= impairment.active_from_ns:
                if self._deferred is None:
                    self._deferred = deque()
                self._deferred.append(frame)
                sim.at(ready_at, self._send_deferred)
                return ready_at
            start = ready_at
        if self._line_free_at > start:
            start = self._line_free_at
        wire_bytes = frame.wire_bytes
        delay = self._serialization_ns.get(wire_bytes)
        if delay is None:
            delay = self._serialization_ns[wire_bytes] = self.serialization_delay_ns(wire_bytes)
        tx_done = start + delay
        self._line_free_at = tx_done
        arrival = tx_done + self.latency_ns
        self.frames_sent += 1
        self.bytes_sent += wire_bytes
        impairment = self.impairment
        if impairment is not None and sim.now >= impairment.active_from_ns:
            for when, delivered in impairment.on_transmit(self, frame, arrival):
                sim.at(when, self.endpoint.receive_frame, delivered, self)
            return arrival
        sim.at(arrival, self.endpoint.receive_frame, frame, self)
        return arrival

    # ------------------------------------------------------------------
    # Elided sends (a dormant standby's traffic, core/standby.py)
    # ------------------------------------------------------------------
    def elide(
        self, send_ns: int, wire_bytes: int, token: Any = None,
        ready_at: Optional[int] = None,
    ) -> int:
        """Account a frame its sender would :meth:`send` at ``send_ns``
        (now or later, in non-decreasing order; ``ready_at`` as there, a
        switch port's) with no event: the line and the counters take it
        at once if it is due and no elided send waits, else at the next
        :meth:`settle_elided` that reaches ``send_ns``; it then joins
        :attr:`elided_departed` (unless ``token`` is None) instead of
        being delivered. Only for a send no impairment hook can touch
        (before its ``active_from_ns`` or from its ``active_until_ns``).
        Returns its arrival, which holds unless a kept frame is sent onto
        the line first."""
        elided = self._elided
        if elided is None:
            elided = self._elided = deque()
            self.elided_departed = deque()
            self._elided_free_at = 0
        ready = send_ns if ready_at is None else ready_at
        free = self._elided_free_at if elided else self._line_free_at
        delay = self._serialization_ns.get(wire_bytes)
        if delay is None:
            delay = self._serialization_ns[wire_bytes] = self.serialization_delay_ns(wire_bytes)
        free = self._elided_free_at = (ready if ready > free else free) + delay
        if elided or send_ns > self.sim.now:
            elided.append((send_ns, ready, wire_bytes, token))
        else:
            self._line_free_at = free
            self.frames_sent += 1
            self.bytes_sent += wire_bytes
            if token is not None:
                self.elided_departed.append((free + self.latency_ns, token))
        return free + self.latency_ns

    def settle_elided(self, now: int) -> None:
        """Apply every elided send at or before ``now`` to the line, in
        send order. :meth:`send` calls this first, so a kept frame queues
        behind every elided one sent no later than it — at a tie the
        elided frame goes first, as its send event, scheduled before the
        kept frame's, would under FIFO."""
        elided = self._elided
        while elided and elided[0][0] <= now:
            _, ready, wire_bytes, token = elided.popleft()
            free = self._line_free_at
            delay = self._serialization_ns.get(wire_bytes)
            if delay is None:
                delay = self._serialization_ns[wire_bytes] = self.serialization_delay_ns(wire_bytes)
            free = self._line_free_at = (ready if ready > free else free) + delay
            self.frames_sent += 1
            self.bytes_sent += wire_bytes
            if token is not None:
                self.elided_departed.append((free + self.latency_ns, token))

    def take_elided(self) -> List[Tuple[int, int, int, Any]]:
        """Remove and return the elided sends not yet applied."""
        if not self._elided:
            return []
        pending = list(self._elided)
        self._elided.clear()
        return pending

    def _send_deferred(self) -> None:
        assert self._deferred is not None
        self.send(self._deferred.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        gbps = self.bandwidth_bps / 1e9
        return f"<Link {self.name} {gbps:g}Gbps {self.latency_ns}ns>"
