"""FAPI channel models.

In tightly-coupled deployments the L2 and PHY exchange FAPI messages over
shared memory (SHM); Slingshot's Orion interposes on that channel and can
extend it across the datacenter with a lean UDP transport. The SHM model
here is a latency-stamped in-process queue: ~1 µs delivery, preserving
message order.

Orion's design is agnostic to the physical channel (paper §6.1): anything
implementing :class:`FapiEndpoint` can peer over a :class:`ShmChannel`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Protocol

from repro.fapi.messages import FapiMessage
from repro.sim.engine import Simulator
from repro.sim.units import US

#: The ring-buffer handoff between two pinned processes.
LATENCY_NS = 1 * US


class FapiEndpoint(Protocol):
    """Anything that consumes FAPI messages from a channel."""

    def receive_fapi(self, message: FapiMessage, channel: "ShmChannel") -> None:
        """Handle one delivered FAPI message."""


class ShmChannel:
    """One direction of a shared-memory FAPI channel.

    Delivery takes :data:`LATENCY_NS`; order is preserved.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: FapiEndpoint,
        name: str,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.latency_ns = LATENCY_NS
        self.name = name
        self.messages_sent = 0
        self._pending: Deque[FapiMessage] = deque()

    def send(self, message: FapiMessage) -> None:
        """Deliver a message after the channel latency.

        Messages wait in an internal FIFO and each delivery event pops the
        head, so the ring buffer's ordering holds even when two deliveries
        share a timestamp and the engine permutes tie order (the
        ``tie_shuffle_seed`` race-detector mode).
        """
        self.messages_sent += 1
        self._pending.append(message)
        self.sim.schedule(self.latency_ns, self._deliver)

    def _deliver(self) -> None:
        self.endpoint.receive_fapi(self._pending.popleft(), self)
