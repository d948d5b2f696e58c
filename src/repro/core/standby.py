"""Standby on touch: a healthy hot standby is evaluated, not simulated.

A hot standby spends its life on null FAPI slots whose output nobody
consumes: the switch filters its C-plane (counting a heartbeat), its
pipeline completion finds nothing to decode, and its PHY-side Orion's
loss watchdog finds every request on time. While that stays true the
standby is *dormant*: its slot tick still draws its RNG and sends its
``SlotIndication`` (both cross shared resources and stay events), but
the server-private rest — two C-plane send events, their two switch
deliveries, the completion event and the watchdog occurrence — is done
as bookkeeping here (DESIGN §9 "Standby on touch: cost model").

**Eligibility** is decided at each of the standby's slot ticks, by
:meth:`StandbyDormancy.sleeper`: the server holds exactly one cell
context, it is that cell's secondary and no migration is in flight, the
slot's UL/DL requests are both present and null, it holds no capture,
feedback, BSR or TX data, neither PHY of the cell is crashed, hung or
slowed, no impairment hook on the server's own two links can touch a
frame before the next tick, the detector does not monitor it, the
switch filters its C-plane for the slot, and its Orion's watchdog
already has the next slot's requests. A hook on any other link of the
cell meets only kept frames, and a hook is inert before its window, so
dormancy does not depend on when a fault plan was armed.

**Touch.** Anything that could make the elided work observable wakes
every dormant standby of the deployment first (:meth:`wake`): a crash,
hang, unhang or restart of any of its PHYs, a slow-down, any L2-side
Orion assignment change, a non-null FAPI message or any fronthaul frame
reaching a dormant PHY, any inbound frame that is not the next null in
sequence (a lost, duplicated, reordered or corrupted one), a hook armed
on its own links with its window opening before the next tick, and a
tick that finds the standby ineligible (a missing null, a hook about to
open). On wake every elided send not yet on the line and every elided
frame still in flight becomes the event it would have been, pending
completions are scheduled, and the watchdog is re-armed at its next
occurrence.

**Settle points.** The NIC link applies elided sends before any kept
send (:meth:`repro.net.link.Link.settle_elided`); a wake settles; and
:meth:`settle` runs whenever a simulator run call returns, so counters,
``collect()`` and checkpoints read between runs see exact values.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.orion import OrionDatagram, PhySideOrion
from repro.fapi.messages import DlTtiRequest, FapiMessage, UlTtiRequest
from repro.net.link import Link
from repro.net.packet import EthernetFrame
from repro.net.switch import SwitchPort
from repro.phy.process import PhyCellContext, PhyProcess
from repro.sim.engine import Simulator

_KINDS = {UlTtiRequest: "UL", DlTtiRequest: "DL"}


class Sleeper:
    """One dormant standby's books.

    Its inbound nulls move through three stages, each a deque in time
    order: *inbound* (on the switch's egress line, arriving at the NIC),
    *queued* (holding the PHY-side Orion's worker) and *handed* (in the
    Orion -> PHY SHM channel). :meth:`settle_inbound` moves what is due.
    """

    __slots__ = (
        "dormancy", "phy", "orion", "port", "egress", "cell", "wire_bytes",
        "finishes", "inbound", "queued", "handed", "expected",
    )

    def __init__(
        self, dormancy: "StandbyDormancy", phy: PhyProcess, orion: PhySideOrion,
        cell: PhyCellContext,
    ) -> None:
        self.dormancy = dormancy
        self.phy = phy
        self.orion = orion
        #: Switch port the NIC link delivers to, and its egress link back.
        self.port: SwitchPort = phy.uplink.endpoint
        self.egress: Link = self.port.egress
        self.cell = cell
        #: Wire size of the null slot's C-plane section.
        self.wire_bytes = phy._null_cplane(cell, 0).wire_bytes
        #: Elided pipeline completions, as ``(done_at, abs_slot)``.
        self.finishes: Deque[Tuple[int, int]] = deque()
        #: Elided inbound nulls per stage, each with its request kind:
        #: ``(arrival, frame, kind)``, ``(done, message, kind)`` and
        #: ``(delivery, message, kind)``.
        self.inbound: Deque[Tuple[int, EthernetFrame, str]] = deque()
        self.queued: Deque[Tuple[int, FapiMessage, str]] = deque()
        self.handed: Deque[Tuple[int, FapiMessage, str]] = deque()
        #: Last slot per request kind put on the egress line for the cell.
        self.expected: Dict[str, Optional[int]] = {
            kind: orion._last_tti_slot.get((cell.cell_id, kind))
            for kind in _KINDS.values()
        }

    def intercept(self, frame: EthernetFrame, arrival: int) -> bool:
        """The egress line's hook: elide the next in-sequence null request
        for this cell's Orion; anything else is a touch, delivered live.

        A null whose NIC arrival would land on the very nanosecond the
        slot tick's ``SlotIndication`` reaches the Orion is delivered live
        too: only the two events' scheduling order could say which one
        takes the worker first."""
        payload = frame.payload
        if type(payload) is OrionDatagram and not payload.is_response:
            message = payload.message
            kind = _KINDS.get(type(message))
            last = self.expected.get(kind)
            if (
                kind is not None
                and not message.pdus
                and message.cell_id == self.cell.cell_id
                and last is not None
                and message.slot == last + 1
                and not self._meets_slot_indication(arrival)
            ):
                self.expected[kind] = message.slot
                self.inbound.append((arrival, frame, kind))
                return True
        self.dormancy.wake()
        return False

    def _meets_slot_indication(self, arrival: int) -> bool:
        phy = self.phy
        boundary = arrival - phy.fapi_tx.latency_ns + phy.config.tx_lead_ns
        clock = phy.slot_clock
        return clock.slot_start(clock.slot_at(boundary)) == boundary

    def reserve_arrivals_before(self, now: int) -> None:
        """Inbound nulls that reached the NIC before ``now`` take the
        Orion's worker (and count as relayed), in arrival order."""
        inbound = self.inbound
        if not inbound or inbound[0][0] >= now:
            return
        orion = self.orion
        queue = orion._queue
        queued = self.queued
        while inbound and inbound[0][0] < now:
            arrival, frame, kind = inbound.popleft()
            orion.stats.messages_relayed += 1
            datagram = frame.payload
            done = queue.reserve(arrival, datagram.wire_bytes)
            queue.depth += 1
            if queue.depth > queue.max_depth:
                queue.max_depth = queue.depth
            queued.append((done, datagram.message, kind))

    def settle_inbound(self, now: int, delivered_before: int) -> None:
        """Apply every stage due by ``now``: arrivals and Orion
        completions at or before it, PHY deliveries before
        ``delivered_before`` (a slot tick is armed a period ahead, so a
        delivery at its own nanosecond comes after it).

        A completion is ``PhySideOrion._to_phy`` of an in-sequence null:
        its gap repair only records the slot, then the SHM send. A
        delivery is ``PhyProcess.receive_fapi`` of a null: it files the
        request under its slot."""
        self.reserve_arrivals_before(now + 1)
        queued = self.queued
        handed = self.handed
        if queued and queued[0][0] <= now:
            orion = self.orion
            queue = orion._queue
            last_slot = orion._last_tti_slot
            channel = orion.shm_to_phy
            cell_id = self.cell.cell_id
            while queued and queued[0][0] <= now:
                done, message, kind = queued.popleft()
                queue.depth -= 1
                last_slot[(cell_id, kind)] = message.slot
                channel.messages_sent += 1
                handed.append((done + channel.latency_ns, message, kind))
        if handed and handed[0][0] < delivered_before:
            cell = self.cell
            while handed and handed[0][0] < delivered_before:
                _, message, kind = handed.popleft()
                requests = cell.ul_tti if kind == "UL" else cell.dl_tti
                requests[message.slot] = message

    def wake_inbound(self, sim: Simulator) -> None:
        """Make every stage not yet due the event it would have been."""
        egress = self.egress
        egress.intercept = None
        for arrival, frame, _ in self.inbound:
            sim.at(arrival, egress._deliver, frame, label=egress._deliver_label)
        queue = self.orion._queue
        for done, message, _ in self.queued:
            sim.at(
                done, queue._complete, self.orion._to_phy, (message,),
                label=queue._service_label,
            )
        channel = self.orion.shm_to_phy
        for delivery, message, _ in self.handed:
            channel._pending.append(message)
            sim.at(delivery, channel._deliver, label=channel._deliver_label)
        self.inbound.clear()
        self.queued.clear()
        self.handed.clear()


class StandbyDormancy:
    """The dormant-standby bookkeeping of one deployment (one middlebox
    and L2-side Orion, with their PHY servers)."""

    def __init__(self, sim: Simulator, middlebox: Any) -> None:
        self.sim = sim
        self.middlebox = middlebox
        self.l2_orion: Optional[Any] = None
        self.phys: Dict[int, PhyProcess] = {}
        self.orions: Dict[int, PhySideOrion] = {}
        #: Dormant standbys by PHY id.
        self.sleeping: Dict[int, Sleeper] = {}
        sim.add_settle_hook(self.settle)

    def add_server(self, phy: PhyProcess, orion: PhySideOrion) -> None:
        self.phys[phy.phy_id] = phy
        self.orions[phy.phy_id] = orion
        phy.dormancy = self

    # ------------------------------------------------------------------
    # The slot tick's question
    # ------------------------------------------------------------------
    def sleeper(self, phy: PhyProcess, abs_slot: int) -> Optional[Sleeper]:
        """The books to run ``phy``'s slot ``abs_slot`` dormant with, or
        None to run it eagerly (waking ``phy`` first if it slept)."""
        current = self.sleeping.get(phy.phy_id)
        now = self.sim.now
        if current is None:
            if not self.eligible(phy, abs_slot):
                return None
            current = self._fall_asleep(phy)
        else:
            current.settle_inbound(now, now)
            if not self._still_eligible(current, abs_slot):
                self._wake(current)
                return None
        finishes = current.finishes
        while finishes and finishes[0][0] <= now:
            finishes.popleft()
        return current

    def eligible(self, phy: PhyProcess, abs_slot: int) -> bool:
        """Whether ``phy`` may fall asleep for slot ``abs_slot`` (module
        notes)."""
        if len(phy.cells) != 1:
            return False
        (cell,) = phy.cells.values()
        assignment = self.l2_orion.cells.get(cell.cell_id)
        if (
            assignment is None
            or assignment.secondary_phy != phy.phy_id
            or assignment.primary_phy == phy.phy_id
            or assignment.migration_slot is not None
        ):
            return False
        if phy.hung or phy.service_inflation_ns:
            return False
        if not cell.started or cell.captures or cell.feedback_only or cell.bsr:
            return False
        if phy.uplink is None or phy.fapi_tx is None or not self._inert(phy):
            return False
        if not self._slot_is_null(cell, abs_slot):
            return False
        primary = self.phys.get(assignment.primary_phy)
        if (
            primary is None
            or not primary.alive
            or primary.hung
            or primary.service_inflation_ns
        ):
            return False
        middlebox = self.middlebox
        return (
            not middlebox.detector.is_monitored(phy.phy_id)
            and middlebox.filters(phy.phy_id, cell.ru_id, abs_slot)
            and self.orions[phy.phy_id].watchdog_covers(abs_slot + 1)
        )

    def _still_eligible(self, current: Sleeper, abs_slot: int) -> bool:
        """A sleeper stays eligible unless its slot's input changed:
        every other condition of :meth:`eligible` changes only through a
        touch, which wakes it before it can."""
        phy = current.phy
        return (
            self._slot_is_null(current.cell, abs_slot)
            and current.orion.watchdog_covers(abs_slot + 1)
            and (phy.uplink.impairment is None and current.egress.impairment is None
                 or self._inert(phy))
        )

    def _inert(self, phy: PhyProcess) -> bool:
        """No impairment hook on the server's two links can touch a
        frame before the next slot tick (a hook elsewhere in the cell
        meets only kept frames; one whose window opens later is a touch
        the tick before it opens)."""
        horizon = self.sim.now + phy.slot_clock.slot_duration_ns
        for link in (phy.uplink, phy.uplink.endpoint.egress):
            hook = link.impairment
            if hook is not None and hook.active_from_ns <= horizon:
                return False
        return True

    @staticmethod
    def _slot_is_null(cell: PhyCellContext, abs_slot: int) -> bool:
        """Both of the slot's TTI requests arrived, null, with no TX data."""
        ul_req = cell.ul_tti.get(abs_slot)
        dl_req = cell.dl_tti.get(abs_slot)
        return (
            ul_req is not None
            and dl_req is not None
            and not ul_req.pdus
            and not dl_req.pdus
            and abs_slot not in cell.tx_data
        )

    def _fall_asleep(self, phy: PhyProcess) -> Sleeper:
        (cell,) = phy.cells.values()
        orion = self.orions[phy.phy_id]
        current = Sleeper(self, phy, orion, cell)
        self.sleeping[phy.phy_id] = current
        phy.asleep = True
        orion.sleeper = current
        orion.pause_watchdog()
        current.egress.intercept = current.intercept
        return current

    # ------------------------------------------------------------------
    # Settle and wake
    # ------------------------------------------------------------------
    def settle(self, now: int) -> None:
        """Bring every dormant standby's elided work up to ``now``."""
        for current in self.sleeping.values():
            current.settle_inbound(now, now + 1)
            self._settle_outbound(current, now)

    def _settle_outbound(self, current: Sleeper, now: int) -> None:
        """Elided C-plane sends onto the line, and their arrivals into
        the switch's and detector's books."""
        link = current.phy.uplink
        link.settle_elided(now)
        departed = link.elided_departed
        count = 0
        last_ns = 0
        while departed and departed[0][0] <= now:
            last_ns = departed.popleft()[0]
            count += 1
        if count:
            current.port.absorb_dropped(count)
            self.middlebox.absorb_filtered(
                current.phy.phy_id, current.cell.ru_id, count, last_ns
            )

    def hooks_attached(self) -> None:
        """Impairment hooks were attached: one that can touch a dormant
        standby's frames before its next tick is a touch (a later one
        wakes it at that tick)."""
        for current in list(self.sleeping.values()):
            if not self._inert(current.phy):
                self._wake(current)

    def wake(self) -> None:
        """A touch: every dormant standby of the deployment goes eager."""
        if self.sleeping:
            for current in list(self.sleeping.values()):
                self._wake(current)

    def _wake(self, current: Sleeper) -> None:
        phy = current.phy
        sim = self.sim
        now = sim.now
        # A delivery at this nanosecond stays an event: it follows the
        # touch, as any event the touch did not schedule might.
        current.settle_inbound(now, now)
        current.wake_inbound(sim)
        self._settle_outbound(current, now)
        link = phy.uplink
        cell = current.cell
        departed = link.elided_departed
        while departed:
            arrival, abs_slot = departed.popleft()
            frame = phy._fronthaul_frame(
                phy._null_cplane(cell, abs_slot), current.wire_bytes
            )
            sim.at(arrival, link._deliver, frame, label=link._deliver_label)
        for send_ns, wire_bytes, abs_slot in link.take_elided():
            phy._pending.append(
                sim.at(
                    send_ns,
                    phy._send_fronthaul_now,
                    phy._null_cplane(cell, abs_slot),
                    wire_bytes,
                    label=phy._fh_tx_label,
                )
            )
        for done_at, abs_slot in current.finishes:
            if done_at > now:
                phy._pending.append(
                    sim.at(
                        done_at,
                        phy._finish_uplink,
                        cell,
                        abs_slot,
                        [],
                        label=phy._ul_done_label,
                    )
                )
        current.orion.resume_watchdog()
        current.orion.sleeper = None
        phy.asleep = False
        del self.sleeping[phy.phy_id]
