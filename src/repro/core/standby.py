"""Standby on touch: a healthy hot standby is evaluated, not simulated.

A hot standby spends its life on null FAPI slots whose output nobody
consumes: the switch filters its C-plane (counting a heartbeat), and the
two null requests the L2-side Orion addresses to it each slot only
reach its request map. While that stays true the standby is *dormant*:
its slot tick still draws its RNG and sends its ``SlotIndication``, and
its pipeline completion and its Orion's loss watchdog still run, but its
two C-plane send events and their switch deliveries, and the two nulls'
way from the L2-side Orion to the PHY's request map, are bookkeeping
here (DESIGN §9 "Standby on touch: cost model").

**Eligibility** is decided at each of the standby's slot ticks, by
:meth:`StandbyDormancy.sleeper`: the server holds exactly one cell
context, it is that cell's secondary and no migration is in flight, the
slot's UL/DL requests are both present and null, it holds no capture,
feedback, BSR or TX data, neither PHY of the cell is crashed, hung or
slowed, no impairment hook on the server's own two links or the L2
server's uplink can touch a frame before the next tick, the detector
does not monitor it, the switch filters its C-plane for the slot, its
Orion's watchdog already has the next slot's requests, and nothing
addressed to it is on its way to its Orion's worker or in it. A hook on
any other link of the cell meets only kept frames, and a hook is inert
before its window opens and after its windows have closed, so dormancy
does not depend on when a fault plan was armed.

**Touch.** Anything that could make the elided work observable wakes
every dormant standby of the deployment first (:meth:`wake`): a crash,
hang, unhang or restart of any of its PHYs, a slow-down, any L2-side
Orion assignment change, a non-null FAPI message, any fronthaul frame or
datagram reaching a dormant server, a counterpart that is not the next
null in sequence, a hook armed on the links above with its window
opening before the next tick, and a tick that finds the standby
ineligible (a missing null, a hook about to open). On wake every elided
send not yet on the line and every elided frame or booked null still in
flight becomes the event it would have been.

**Settle points.** A line applies elided sends before any kept send
(:meth:`repro.net.link.Link.settle_elided`); the Orion's worker takes
booked arrivals before a kept submit; a tick files the nulls delivered
before it; a wake settles; and :meth:`settle` runs whenever a simulator
run call returns, so counters, ``collect()`` and checkpoints read
between runs see exact values. It is the only drain of the C-plane
books short of a wake, so every sleeper has work for it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.orion import UDP_OVERHEAD_BYTES, OrionDatagram, PhySideOrion
from repro.fapi.codec import wire_size
from repro.fapi.messages import FapiMessage, null_dl_tti, null_ul_tti
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.net.switch import SwitchPort
from repro.phy.numerology import SLOT_EPOCH_NS
from repro.phy.process import TX_LEAD_NS, PhyCellContext, PhyProcess
from repro.sim.engine import Simulator

#: Request kinds as book indices; a booked null is ``slot << 1 | kind``.
UL, DL = 0, 1
_NULLS = (null_ul_tti, null_dl_tti)


class Sleeper:
    """One dormant standby's books.

    A null the L2-side Orion books (:meth:`book`) is an elided send on
    the L2 line and one on the switch -> NIC line (:attr:`egress`),
    whose ``elided_departed`` gives its NIC arrival;
    :meth:`settle_inbound` takes it from there through the Orion's
    worker (*queued*, with its completion) and SHM (*handed*, with its
    delivery) to *filed*, as integer arithmetic on its code. The slot
    tick takes filed nulls from the books (:meth:`take`); a wake writes
    the rest into the PHY's request maps (:meth:`file_requests`).
    """

    __slots__ = (
        "dormancy", "sim", "l2_stats", "phy", "orion", "cell", "cell_id", "port",
        "egress", "l2_line", "l2_port", "pipeline_ns",
        "wire_bytes", "null_bytes", "keys", "booked", "forwarded",
        "queued", "handed", "expected", "filed", "taken",
    )

    def __init__(
        self, dormancy: "StandbyDormancy", phy: PhyProcess, orion: PhySideOrion,
        cell: PhyCellContext,
    ) -> None:
        self.dormancy = dormancy
        self.sim = dormancy.sim
        self.l2_stats = dormancy.l2_orion.stats
        self.phy = phy
        self.orion = orion
        self.cell = cell
        self.cell_id = cell.cell_id
        #: The NIC link's switch port and its egress link; the L2 uplink's.
        self.port: SwitchPort = phy.uplink.endpoint
        self.egress: Link = self.port.egress
        self.l2_line: Link = dormancy.l2_orion.uplink
        self.l2_port: SwitchPort = self.l2_line.endpoint
        self.pipeline_ns = self.port.switch.pipeline_latency_ns
        #: Wire size of the null slot's C-plane section, and per kind of a
        #: null request's datagram, and its loss-repair key at the Orion.
        self.wire_bytes = phy._null_cplane(cell, 0).wire_bytes
        self.null_bytes = tuple(UDP_OVERHEAD_BYTES + wire_size(null(0, 0)) for null in _NULLS)
        self.keys = ((cell.cell_id, "UL"), (cell.cell_id, "DL"))
        #: Nulls booked, and those the switch has forwarded (the rest are
        #: elided sends the egress line has not yet taken).
        self.booked = 0
        self.forwarded = 0
        #: Booked nulls in the worker, as ``(done, code)``, and in SHM, as
        #: ``(delivery, code)``.
        self.queued: Deque[Tuple[int, int]] = deque()
        self.handed: Deque[Tuple[int, int]] = deque()
        #: Per kind: the last slot sent or booked toward the Orion, the
        #: last filed, and the last the request map holds or a tick took
        #: (the books hold the filed slots after it).
        last = orion._last_tti_slot
        self.expected: List[int] = [last.get(key, -2) for key in self.keys]
        self.filed = list(self.expected)
        self.taken = list(self.expected)

    def book(self, kind: int, cell_id: int, slot: int) -> bool:
        """Book the null TTI request of ``kind`` (:data:`UL` or :data:`DL`)
        for ``cell_id``'s ``slot`` that the L2-side Orion would send the
        standby: its stats, and elided sends on the L2 line and on the
        switch -> NIC line (after the switch's constant pipeline
        latency). False to send it live: it is not this cell's next null
        of its kind, which wakes the deployment.

        A null whose NIC arrival lands on the nanosecond a tick's
        ``SlotIndication`` reaches the Orion wakes it at once, which
        makes it the event it would have been: only the two events'
        scheduling order could say which takes the worker first."""
        expected = self.expected
        if cell_id != self.cell_id or slot != expected[kind] + 1:
            self.dormancy.wake()
            return False
        expected[kind] = slot
        wire_bytes = self.null_bytes[kind]
        stats = self.l2_stats
        stats.messages_relayed += 1
        stats.bytes_on_wire += wire_bytes
        arrival = self.l2_line.elide(self.sim.now, wire_bytes)
        self.booked += 1
        nic = self.egress.elide(arrival, wire_bytes, slot << 1 | kind, arrival + self.pipeline_ns)
        if self._meets_slot_indication(nic):
            self.dormancy.wake()
        return True

    def _meets_slot_indication(self, arrival: int) -> bool:
        phy = self.phy
        clock = phy.slot_clock
        boundary = arrival - phy.fapi_tx.latency_ns + TX_LEAD_NS
        return (boundary - SLOT_EPOCH_NS) % clock.slot_duration_ns == 0

    def settle_inbound(self, now: int, arrived_by: int, delivered_before: int) -> None:
        """Apply every stage due: NIC arrivals at or before
        ``arrived_by`` reserve the Orion's worker in arrival order and
        count as relayed (``receive_frame``); completions at or before
        ``now`` record the slot for loss repair and send on SHM
        (``_to_phy`` of an in-sequence null); deliveries before
        ``delivered_before`` are filed (a slot tick is armed a period
        ahead, so a delivery at its own nanosecond comes after it)."""
        egress = self.egress
        elided = egress._elided
        if elided and elided[0][0] <= now:
            egress.settle_elided(now)
        departed = egress.elided_departed
        queued, handed, filed = self.queued, self.handed, self.filed
        if not (departed or queued or handed):
            return
        orion = self.orion
        channel = orion.shm_to_phy
        latency = channel.latency_ns
        while True:
            if queued and queued[0][0] <= now:
                done, code = queued.popleft()
            elif departed and departed[0][0] <= arrived_by:
                arrival, code = departed.popleft()
                orion.stats.messages_relayed += 1
                done = orion._queue.reserve(arrival, self.null_bytes[code & 1])
                if queued or done > now:
                    queued.append((done, code))
                    continue
            else:
                break
            orion._last_tti_slot[self.keys[code & 1]] = code >> 1
            channel.messages_sent += 1
            if handed or done + latency >= delivered_before:
                handed.append((done + latency, code))
            else:
                filed[code & 1] = code >> 1
        while handed and handed[0][0] < delivered_before:
            code = handed.popleft()[1]
            filed[code & 1] = code >> 1

    def settle_switch(self) -> None:
        """Count the booked nulls the switch has forwarded since the last
        call: each one the egress line has taken."""
        elided = self.egress._elided
        forwarded = self.booked - len(elided or ())
        if forwarded > self.forwarded:
            self.l2_port.absorb_forwarded(forwarded - self.forwarded, self.port)
            self.forwarded = forwarded

    def slot_is_null(self, abs_slot: int) -> bool:
        """Both of the slot's TTI requests arrived, null, with no TX data:
        each is the next filed one in the books, or in the request map."""
        cell, taken, filed = self.cell, self.taken, self.filed
        for kind in (UL, DL):
            last = taken[kind]
            if abs_slot > last:
                if abs_slot != last + 1 or filed[kind] == last:
                    return False
            else:
                request = (cell.dl_tti if kind else cell.ul_tti).get(abs_slot)
                if request is None or request.pdus:
                    return False
        return abs_slot not in cell.tx_data

    def take(self, abs_slot: int) -> None:
        """The slot tick takes its two requests (:meth:`slot_is_null`)."""
        taken, cell = self.taken, self.cell
        if abs_slot > taken[UL]:
            taken[UL] = abs_slot
        else:
            del cell.ul_tti[abs_slot]
        if abs_slot > taken[DL]:
            taken[DL] = abs_slot
        else:
            del cell.dl_tti[abs_slot]

    def file_requests(self) -> None:
        """Write the filed nulls the books hold into the request maps, as
        ``PhyProcess.receive_fapi`` would have."""
        for kind, requests in ((UL, self.cell.ul_tti), (DL, self.cell.dl_tti)):
            for slot in range(self.taken[kind] + 1, self.filed[kind] + 1):
                requests[slot] = _NULLS[kind](self.cell_id, slot)
            self.taken[kind] = self.filed[kind]

    def _null(self, code: int) -> FapiMessage:
        return _NULLS[code & 1](self.cell_id, code >> 1)

    def _frame(self, code: int) -> EthernetFrame:
        """The frame the L2-side Orion would have sent for a booked null."""
        datagram = OrionDatagram(self._null(code), self.phy.phy_id, is_response=False)
        return EthernetFrame(
            src=self.dormancy.l2_orion.mac, dst=self.orion.mac, ethertype=EtherType.IPV4,
            payload=datagram, wire_bytes=datagram.wire_bytes,
        )

    def wake_inbound(self, sim: Simulator) -> None:
        """Make every booked null not yet filed the event it would have
        been (after :meth:`settle_inbound` now): on the L2 line (which
        took it when booked), a switch delivery; on the egress line, a NIC
        delivery; in the worker, its completion; in SHM, its delivery."""
        l2_line, egress = self.l2_line, self.egress
        for arrival, _, _, code in egress.take_elided():
            sim.at(arrival, l2_line.endpoint.receive_frame, self._frame(code), l2_line)
        departed = egress.elided_departed or deque()
        while departed:
            arrival, code = departed.popleft()
            sim.at(arrival, egress.endpoint.receive_frame, self._frame(code), egress)
        channel = self.orion.shm_to_phy
        for done, code in self.queued:
            sim.at(done, self.orion._to_phy, self._null(code))
        for delivery, code in self.handed:
            channel._pending.append(self._null(code))
            sim.at(delivery, channel._deliver)


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
        if current is None:
            return self._fall_asleep(phy) if self.eligible(phy, abs_slot) else None
        now = self.sim.now
        current.settle_inbound(now, now, now)
        if not self._still_eligible(current, abs_slot):
            self._wake(current)
            return None
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
        if not self._inert(phy):
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
        orion = self.orions[phy.phy_id]
        return (
            not middlebox.detector.is_monitored(phy.phy_id)
            and middlebox.filters(phy.phy_id, cell.ru_id, abs_slot)
            and orion.watchdog_covers(abs_slot + 1)
            and self._nothing_inbound(phy, orion)
        )

    def _still_eligible(self, current: Sleeper, abs_slot: int) -> bool:
        """A sleeper stays eligible unless its slot's input changed:
        every other condition of :meth:`eligible` changes only through a
        touch, which wakes it before it can."""
        return (
            current.slot_is_null(abs_slot)
            and current.orion.watchdog_covers(abs_slot + 1)
            and (
                current.phy.uplink.impairment is None
                and current.egress.impairment is None
                and current.l2_line.impairment is None
                or self._inert(current.phy)
            )
        )

    def _inert(self, phy: PhyProcess) -> bool:
        """No impairment hook on the server's two links or the L2
        server's uplink can touch a frame from now to the next slot tick:
        its windows open after the tick or have all closed (a hook
        elsewhere in the cell meets only kept frames; one whose window
        opens later is a touch the tick before it opens)."""
        now = self.sim.now
        horizon = now + phy.slot_clock.slot_duration_ns
        for link in (phy.uplink, phy.uplink.endpoint.egress, self.l2_orion.uplink):
            hook = link.impairment
            if hook is not None and hook.active_from_ns <= horizon and hook.active_until_ns > now:
                return False
        return True

    def _nothing_inbound(self, phy: PhyProcess, orion: PhySideOrion) -> bool:
        """Nothing addressed to the server is on its way to its Orion's
        worker or in it: the L2 line, the switch -> NIC line and the
        worker are all idle by now, so the books start where the
        Orion's loss repair stands and no live frame has to be merged."""
        now = self.sim.now
        for link in (self.l2_orion.uplink, phy.uplink.endpoint.egress):
            if link._line_free_at + link.latency_ns >= now:
                return False
        return orion._queue._busy_until < now

    @staticmethod
    def _slot_is_null(cell: PhyCellContext, abs_slot: int) -> bool:
        """Both of the slot's TTI requests arrived, null, with no TX data."""
        requests = (cell.ul_tti.get(abs_slot), cell.dl_tti.get(abs_slot))
        return abs_slot not in cell.tx_data and all(
            request is not None and not request.pdus for request in requests
        )

    def _fall_asleep(self, phy: PhyProcess) -> Sleeper:
        (cell,) = phy.cells.values()
        orion = self.orions[phy.phy_id]
        current = Sleeper(self, phy, orion, cell)
        self.sleeping[phy.phy_id] = current
        phy.asleep = True
        orion.sleeper = current
        return current

    # ------------------------------------------------------------------
    # Settle and wake
    # ------------------------------------------------------------------
    def settle(self, now: int) -> None:
        """Bring every dormant standby's elided work up to ``now``."""
        for current in self.sleeping.values():
            current.settle_inbound(now, now, now + 1)
            current.settle_switch()
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
        current.settle_inbound(now, now, now)
        current.settle_switch()
        current.file_requests()
        current.wake_inbound(sim)
        self._settle_outbound(current, now)
        link, cell, pending = phy.uplink, current.cell, phy._pending
        departed = link.elided_departed
        while departed:
            arrival, abs_slot = departed.popleft()
            frame = phy._fronthaul_frame(
                phy._null_cplane(cell, abs_slot), current.wire_bytes
            )
            sim.at(arrival, link.endpoint.receive_frame, frame, link)
        for send_ns, _, wire_bytes, abs_slot in link.take_elided():
            pending.append(sim.at(
                send_ns, phy._send_fronthaul_now, phy._null_cplane(cell, abs_slot),
                wire_bytes,
            ))
        current.orion.sleeper = None
        phy.asleep = False
        del self.sleeping[phy.phy_id]
