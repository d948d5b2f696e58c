"""Per-link probabilistic impairments.

A :class:`LinkImpairment` implements the
:class:`repro.net.link.LinkImpairmentHook` protocol: the link calls
``on_transmit`` once per frame and schedules whatever deliveries the
hook returns. All randomness comes from one ``faults.link.<name>``
registry stream per link, and the hook draws a fixed number of uniforms
per matching frame regardless of outcome, so enabling one fault kind
never perturbs another kind's draws.

Corruption is modeled at the payload level: the frame still occupies the
wire (serialization/latency unchanged) but its payload is wrapped in
:class:`CorruptedPayload`, which no receiver's ``isinstance`` dispatch
recognizes — switch pipelines count it as unknown and endpoints discard
it, exactly like a frame that fails its integrity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

from repro.faults.plan import LinkFaultSpec
from repro.net.link import Link
from repro.net.packet import EthernetFrame
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class CorruptedPayload:
    """Marker wrapper for a payload mangled on the wire."""

    original: Any


@dataclass
class ImpairmentStats:
    #: Frames inside some spec's window and ethertypes (each counted once),
    #: so the reading does not depend on when the hook was attached.
    frames_seen: int = 0
    dropped: int = 0
    corrupted: int = 0
    reordered: int = 0
    duplicated: int = 0


class LinkImpairment:
    """All of one link's active fault specs plus their RNG stream."""

    def __init__(
        self,
        specs: Tuple[LinkFaultSpec, ...],
        rng: np.random.Generator,
        trace: TraceRecorder,
    ) -> None:
        self.specs = specs
        self.rng = rng
        self.trace = trace
        self.stats = ImpairmentStats()
        #: No frame is touched before the earliest window opens, so the
        #: link need not defer until then (see :meth:`Link.send`), nor
        #: once the latest has closed (``on_transmit`` then draws nothing).
        self.active_from_ns = min(spec.start_ns for spec in specs)
        self.active_until_ns = max(spec.end_ns for spec in specs)

    def on_transmit(
        self, link: Link, frame: EthernetFrame, arrival: int
    ) -> List[Tuple[int, EthernetFrame]]:
        now = link.sim.now
        seen = False
        delivered = frame
        deliver_at = arrival
        duplicate = False
        for spec in self.specs:
            if not spec.start_ns <= now < spec.end_ns:
                continue
            if spec.ethertypes and frame.ethertype not in spec.ethertypes:
                continue
            if not seen:
                seen = True
                self.stats.frames_seen += 1
            # Fixed draw order — loss, corrupt, reorder(+jitter), dup —
            # keeps stream consumption identical across outcomes.
            u_loss = float(self.rng.random())
            u_corrupt = float(self.rng.random())
            u_reorder = float(self.rng.random())
            jitter = float(self.rng.random())
            u_dup = float(self.rng.random())
            if u_loss < spec.loss_prob:
                self.stats.dropped += 1
                self._record("fault.link_drop", link, frame)
                return []
            if u_corrupt < spec.corrupt_prob and not isinstance(
                delivered.payload, CorruptedPayload
            ):
                delivered = EthernetFrame(
                    src=delivered.src,
                    dst=delivered.dst,
                    ethertype=delivered.ethertype,
                    payload=CorruptedPayload(delivered.payload),
                    wire_bytes=delivered.wire_bytes,
                )
                self.stats.corrupted += 1
                self._record("fault.link_corrupt", link, frame)
            if u_reorder < spec.reorder_prob and spec.reorder_jitter_ns > 0:
                deliver_at += round(jitter * spec.reorder_jitter_ns)
                self.stats.reordered += 1
                self._record("fault.link_reorder", link, frame)
            if u_dup < spec.dup_prob:
                duplicate = True
        deliveries = [(deliver_at, delivered)]
        if duplicate:
            self.stats.duplicated += 1
            self._record("fault.link_dup", link, frame)
            deliveries.append((deliver_at + 1_000, delivered))
        return deliveries

    def _record(self, category: str, link: Link, frame: EthernetFrame) -> None:
        self.trace.record(
            link.sim.now,
            category,
            link=link.name,
            ethertype=int(frame.ethertype),
        )
