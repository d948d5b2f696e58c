"""Orion — the L2-to-PHY FAPI middlebox (paper §6).

Orion processes pair with an L2 ("L2-side Orion") or a PHY ("PHY-side
Orion") over the same shared-memory channel the two would normally share,
and talk to each other over a lean, stateless UDP transport across the
edge-datacenter network (§6.1). Because FAPI is a narrow waist shared by
all L2/PHY vendors, interposing here is implementation-agnostic.

The L2-side Orion:

* intercepts the L2's cell initialization (CONFIG/START) and replays it
  to *both* the primary and the secondary PHY, storing a copy so new
  secondaries can be spawned after a failover (§6.3);
* forwards each per-slot TTI request unmodified to the active PHY and
  fabricates a **null** TTI request for the standby, keeping it alive at
  negligible CPU cost (§6.2);
* forwards only the active PHY's responses up to the L2, silently
  dropping the standby's;
* on failure notification (or operator request), picks a migration slot,
  sends `migrate_on_slot` to the switch, and steers FAPI by slot number
  — requests for slots ≥ the boundary go (real) to the new PHY. The old
  primary's in-flight responses for pre-boundary slots keep being
  accepted (pipelined slot draining, Fig 7).

The PHY-side Orion is a stateless relay between the network transport
and its local PHY's SHM channel.

Both sides model a busy-polling DPDK worker: per-message service time
plus FIFO queueing, which is what the Fig 12 latency-vs-load
microbenchmark measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.commands import SLINGSHOT_CMD_BYTES, FailureNotification, MigrateOnSlot, SetMonitor
from repro.fapi.channels import ShmChannel
from repro.fapi.codec import wire_size
from repro.fapi.messages import (
    ConfigRequest,
    DlTtiRequest,
    FapiMessage,
    SlotIndication,
    StartRequest,
    TxDataRequest,
    UlTtiRequest,
    null_dl_tti,
    null_ul_tti,
)
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.phy.numerology import SlotClock
from repro.sim.engine import PeriodicHandle, Simulator
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder
from repro.sim.units import US

#: Ethernet + IP + UDP overhead on each inter-Orion datagram.
UDP_OVERHEAD_BYTES = 46


@dataclass(init=False)
class OrionDatagram:
    """One FAPI message in flight between two Orion processes."""

    message: FapiMessage
    #: PHY server id of the sender/receiver PHY side.
    phy_id: int
    #: True when flowing PHY -> L2 (an indication/response).
    is_response: bool
    #: On-the-wire size, fixed at construction (read 2-3 times per hop).
    wire_bytes: int

    def __init__(self, message: FapiMessage, phy_id: int, is_response: bool) -> None:
        self.message = message
        self.phy_id = phy_id
        self.is_response = is_response
        self.wire_bytes = UDP_OVERHEAD_BYTES + wire_size(message)


# Per-process Orion tunables (service model per Fig 12).

#: Fixed per-message processing cost (parse + transform + enqueue).
SERVICE_BASE_NS = 1_500
#: Additional cost per payload byte (copy through the UDP path).
SERVICE_PER_BYTE_NS = 0.42
#: Slot margin used when choosing a failover migration boundary.
FAILOVER_SLOT_MARGIN = 1
#: Slot margin for planned migrations (must exceed the L2's
#: schedule-ahead depth so zero TTIs are dropped).
PLANNED_SLOT_MARGIN = 6
#: Slots of draining during which the old primary's responses for
#: pre-boundary slots are still accepted.
DRAIN_SLOTS = 4
#: Upper bound on nulls fabricated for one arrival-time sequence gap
#: (a huge jump, e.g. after a pause, must not flood the PHY).
MAX_REPAIR_SLOTS = 8
#: Response watchdog (§6.2 backstop for gray failures): if the active
#: PHY's FAPI responses go silent for this many slots while its
#: heartbeats keep the in-switch detector happy, the L2-side Orion
#: fails the cell over itself.
RESPONSE_WATCHDOG_SLOTS = 8
#: Lead before slot start at which the PHY-side Orion's loss-repair
#: watchdog checks that the slot's TTI requests arrived.
WATCHDOG_LEAD_NS = 200 * US
#: Times each migration's command packets are retransmitted (the
#: switch command path is lossy under faults; commands are idempotent).
COMMAND_RETX_COUNT = 8
#: Slots between command retransmissions.
COMMAND_RETX_SPACING_SLOTS = 1


@dataclass
class OrionStats:
    messages_relayed: int = 0
    #: UL/DL TTI and TX-data requests routed to a cell's active PHY.
    real_requests_sent: int = 0
    null_requests_sent: int = 0
    responses_dropped: int = 0
    drained_responses: int = 0
    migrations_initiated: int = 0
    failovers_handled: int = 0
    bytes_on_wire: int = 0
    #: Failure notifications for cells with no live standby.
    failovers_impossible: int = 0
    #: Failure notifications that started no migration and marked no
    #: failover impossible (duplicates, or a PHY no cell runs on).
    notifications_ignored: int = 0
    #: Gap-repair nulls not fabricated because the gap exceeded the cap.
    repair_slots_dropped: int = 0
    #: Failovers triggered by the L2-side response watchdog (gray faults).
    watchdog_failovers: int = 0
    #: Response-watchdog expiries, whether or not a standby could take over.
    watchdog_fires: int = 0
    #: Migration command packets retransmitted.
    commands_retransmitted: int = 0


class _ServiceQueue:
    """Single-worker FIFO modeling Orion's busy-polling DPDK thread."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._busy_until = 0

    def submit(
        self, size_bytes: int, action: Callable[..., None], *args: Any
    ) -> int:
        """Queue one message; returns its completion time.

        ``action(*args)`` is the completion event itself. It is a bound
        method — not a closure — so an in-flight queue survives a
        checkpoint pickle.
        """
        done = self.reserve(self.sim.now, size_bytes)
        self.sim.at(done, action, *args)
        return done

    def reserve(self, arrival: int, size_bytes: int) -> int:
        """Take the worker for one message arriving at ``arrival``;
        returns its completion time (no event: :meth:`submit` schedules
        one, a dormant standby's booked null is completed by its books)."""
        service = SERVICE_BASE_NS + round(size_bytes * SERVICE_PER_BYTE_NS)
        start = arrival if arrival > self._busy_until else self._busy_until
        done = start + service
        self._busy_until = done
        return done


@dataclass
class CellAssignment:
    """L2-side Orion's bookkeeping for one cell (RU)."""

    cell_id: int
    ru_id: int
    primary_phy: int
    secondary_phy: Optional[int]
    #: Stored copy of the cell's initialization messages (§6.3).
    stored_config: Optional[ConfigRequest] = None
    #: Pending migration boundary: FAPI for slots >= this goes to the
    #: (new) destination PHY. None = no migration in progress.
    migration_slot: Optional[int] = None
    migration_dest: Optional[int] = None
    #: Old primary during a migration (drained, then retired).
    draining_phy: Optional[int] = None
    drain_until_slot: int = -1
    #: Servers that failed while serving this cell (placement avoids
    #: them until an operator explicitly revives them).
    failed_phys: Set[int] = field(default_factory=set)
    #: Response watchdog state: when the active PHY last produced an
    #: accepted FAPI response (None until one is seen, reset on migration).
    last_response_ns: Optional[int] = None
    #: Whether a watchdog check event is already scheduled for this cell.
    watchdog_pending: bool = False
    #: Monotonic migration counter; stale command retransmissions carry
    #: an older value and are discarded.
    migration_seq: int = 0


class PhySideOrion(Process):
    """Orion peer process running next to one PHY.

    Loss protection (§6.1): the inter-Orion transport is a lean
    stateless UDP, so a rare datacenter packet loss could starve the PHY
    of a slot's TTI request — which would crash it (§6.2) and, worse,
    silence its heartbeat for that slot, tripping the failure detector.
    The PHY-side Orion therefore runs a per-slot watchdog once a cell's
    TTI stream is flowing: if a slot's UL/DL TTI request has not arrived
    shortly before the PHY needs it, Orion discards that slot's messages
    and injects null requests in their place, keeping both the FAPI
    contract and the heartbeat cadence intact. Arrival-time gap repair
    covers any stragglers.

    Both serve a live PHY. The first watchdog tick after its PHY crashed
    stops the watchdog and drops the loss-repair state, and a request
    reaching a dead PHY repairs nothing and arms nothing; the first
    request after a restart (the L2-side Orion's ``initialize_secondary``
    replay is followed by the standby's nulls) arms it again. A hung PHY
    keeps its watchdog: a hang is a gray failure the Orion cannot see,
    and the PHY's transmit thread still needs each slot's requests.
    """

    def __init__(
        self,
        sim: Simulator,
        phy_id: int,
        mac: MacAddress,
        slot_clock: SlotClock,
        trace: TraceRecorder,
        name: str,
    ) -> None:
        super().__init__(sim, name)
        self.phy_id = phy_id
        self.mac = mac
        self.slot_clock = slot_clock
        self.trace = trace
        self.stats = OrionStats()
        self._queue = _ServiceQueue(sim, self.name)
        #: SHM channel toward the local PHY, the NIC uplink into the
        #: switch, and the L2-side Orion's MAC (destination for
        #: responses): set by the builder before the first event.
        self.shm_to_phy: ShmChannel
        self.uplink: Link
        self.l2_orion_mac: MacAddress
        #: Loss repair: last TTI-request slot seen per (cell, type-name).
        self._last_tti_slot: Dict[Tuple[int, str], int] = {}
        #: Nulls injected to cover transport losses.
        self.nulls_injected = 0
        self._watchdog_running = False
        self._watchdog: Optional[PeriodicHandle] = None
        #: The :class:`~repro.core.standby.Sleeper` while its PHY is
        #: dormant: booked inbound nulls take the worker before any kept
        #: submit does.
        self.sleeper: Optional[Any] = None

    # --- Network -> PHY -------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, ingress: Link) -> None:
        payload = frame.payload
        if not isinstance(payload, OrionDatagram):
            return
        if self.sleeper is not None:
            # Every null for a dormant PHY is booked: a datagram is a touch.
            self.sleeper.dormancy.wake()
        self.stats.messages_relayed += 1
        self._queue.submit(payload.wire_bytes, self._to_phy, payload.message)

    def _to_phy(self, message: FapiMessage) -> None:
        channel = self.shm_to_phy
        if channel.endpoint.alive:
            for repaired in self._repair_gaps(message):
                channel.send(repaired)
        channel.send(message)

    def _repair_gaps(self, message: FapiMessage) -> List[FapiMessage]:
        """Fabricate null TTI requests for slots lost on the transport."""
        if isinstance(message, UlTtiRequest):
            kind, make_null = "UL", null_ul_tti
        elif isinstance(message, DlTtiRequest):
            kind, make_null = "DL", null_dl_tti
        else:
            return []
        key = (message.cell_id, kind)
        last = self._last_tti_slot.get(key)
        self._last_tti_slot[key] = max(message.slot, last or message.slot)
        self._start_watchdog()
        if last is None or message.slot <= last + 1:
            return []
        cap = MAX_REPAIR_SLOTS
        missing = range(last + 1, min(message.slot, last + 1 + cap))
        dropped = (message.slot - last - 1) - len(missing)
        if dropped > 0:
            self.stats.repair_slots_dropped += dropped
        nulls = [make_null(message.cell_id, slot) for slot in missing]
        self.nulls_injected += len(nulls)
        if nulls:
            self.trace.record(
                self.sim.now, "orion.loss_repaired",
                phy=self.phy_id, cell=message.cell_id, count=len(nulls),
            )
        return nulls

    # --- Per-slot watchdog (deadline-based loss repair) -----------------
    def _start_watchdog(self) -> None:
        if self._watchdog_running:
            return
        self._watchdog_running = True
        self._arm_watchdog()

    def _arm_watchdog(self) -> None:
        next_slot = self.slot_clock.slot_at(self.sim.now + WATCHDOG_LEAD_NS) + 1
        fire_at = self.slot_clock.slot_start(next_slot) - WATCHDOG_LEAD_NS
        if self._watchdog is not None:
            self._watchdog.re_arm(first_at=fire_at)
            return
        self._watchdog = self.sim.schedule_periodic(
            self.slot_clock.slot_duration_ns,
            self._watchdog_tick,
            first_at=fire_at,
        )

    def watchdog_covers(self, abs_slot: int) -> bool:
        """True when the watchdog occurrence for ``abs_slot`` (and every
        earlier one) will inject nothing: its requests already arrived.
        ``_last_tti_slot`` only grows, so the answer holds until then:
        a dormant standby (core/standby.py), whose books settle nulls
        into it late, sleeps only while it holds up to its next tick."""
        return self._watchdog_running and min(self._last_tti_slot.values()) >= abs_slot

    def _watchdog_tick(self) -> None:
        """Just before the PHY needs the upcoming slot's requests, check
        that they arrived; inject nulls for any that did not."""
        abs_slot = self.slot_clock.slot_at(self.sim.now + WATCHDOG_LEAD_NS)
        if not self.shm_to_phy.endpoint.alive:
            # A crashed PHY has no FAPI contract left to keep: stop, and
            # forget the slots seen, so a restarted PHY's loss repair
            # starts afresh at its first request (class notes).
            self._watchdog.cancel()
            self._watchdog_running = False
            self._last_tti_slot.clear()
            return
        # Sorted, not insertion order: the dict is populated in arrival
        # order of the first UL/DL request, which can be a same-timestamp
        # tie — iteration must not depend on how that tie broke.
        for (cell_id, kind), last in sorted(self._last_tti_slot.items()):
            if last >= abs_slot:
                continue
            make_null = null_ul_tti if kind == "UL" else null_dl_tti
            for slot in range(last + 1, abs_slot + 1):
                self.shm_to_phy.send(make_null(cell_id, slot))
                self.nulls_injected += 1
            self._last_tti_slot[(cell_id, kind)] = abs_slot
            self.trace.record(
                self.sim.now, "orion.watchdog_nulls",
                phy=self.phy_id, cell=cell_id, kind=kind, slot=abs_slot,
            )

    # --- PHY -> network ---------------------------------------------------
    def receive_fapi(self, message: FapiMessage, channel: ShmChannel) -> None:
        if self.sleeper is not None:
            now = self.sim.now
            self.sleeper.settle_inbound(now, now - 1, now)
        datagram = OrionDatagram(message=message, phy_id=self.phy_id, is_response=True)
        self.stats.messages_relayed += 1
        self.stats.bytes_on_wire += datagram.wire_bytes
        self._queue.submit(datagram.wire_bytes, self._to_network, datagram)

    def _to_network(self, datagram: OrionDatagram) -> None:
        frame = EthernetFrame(
            src=self.mac,
            dst=self.l2_orion_mac,
            ethertype=EtherType.IPV4,
            payload=datagram,
            wire_bytes=datagram.wire_bytes,
        )
        self.uplink.send(frame)


class L2SideOrion(Process):
    """Orion peer process running next to the L2 — the migration brain."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacAddress,
        slot_clock: SlotClock,
        trace: TraceRecorder,
        name: str = "orion-l2",
    ) -> None:
        super().__init__(sim, name)
        self.mac = mac
        self.slot_clock = slot_clock
        self.trace = trace
        self.stats = OrionStats()
        self._queue = _ServiceQueue(sim, self.name)
        #: SHM channel toward cell 0's L2, and the NIC uplink into the
        #: switch: set by the builder before the first event.
        self.shm_to_l2: ShmChannel
        self.uplink: Link
        #: Multi-cell: per-cell SHM channels when several L2 processes
        #: share this server (falls back to ``shm_to_l2``).
        self.shm_to_l2_by_cell: Dict[int, ShmChannel] = {}
        #: PHY server id -> PHY-side Orion MAC.
        self.phy_orion_macs: Dict[int, MacAddress] = {}
        #: Cell assignments by cell id.
        self.cells: Dict[int, CellAssignment] = {}
        #: Callback fired when a failover completes (hook for experiments).
        self.on_failover: Optional[Callable[[int, int], None]] = None
        #: Pooled-standby gate (fleet composer): consulted with the cell's
        #: assignment before a *failover* promotes its warm standby.
        #: Returning False denies the promotion (shared pool exhausted) and
        #: the cell degrades exactly as if it had no standby. ``None`` —
        #: the dedicated-standby default — always grants.
        self.standby_gate: Optional[Callable[[CellAssignment], bool]] = None
        #: The deployment's :class:`~repro.core.standby.StandbyDormancy`
        #: (set by the builder before the first event): any assignment
        #: change wakes its dormant standbys first.
        self.dormancy: Any

    # ------------------------------------------------------------------
    # Wiring / cluster config
    # ------------------------------------------------------------------
    def register_phy_server(self, phy_id: int, orion_mac: MacAddress) -> None:
        self.phy_orion_macs[phy_id] = orion_mac

    def assign_cell(
        self, cell_id: int, ru_id: int, primary_phy: int, secondary_phy: Optional[int]
    ) -> CellAssignment:
        assignment = CellAssignment(
            cell_id=cell_id,
            ru_id=ru_id,
            primary_phy=primary_phy,
            secondary_phy=secondary_phy,
        )
        self.cells[cell_id] = assignment
        return assignment

    # ------------------------------------------------------------------
    # L2 -> PHYs (requests)
    # ------------------------------------------------------------------
    def receive_fapi(self, message: FapiMessage, channel: ShmChannel) -> None:
        """FAPI request arriving from the local L2 over SHM."""
        assignment = self.cells.get(message.cell_id)
        if assignment is None:
            return
        size = wire_size(message)
        self._queue.submit(size, self._route_request, assignment, message)

    def _route_request(self, assignment: CellAssignment, message: FapiMessage) -> None:
        if isinstance(message, ConfigRequest):
            # Intercept + store initialization, duplicate to both PHYs (§6.3).
            assignment.stored_config = message
            self._send_to_phy(assignment.primary_phy, message)
            if assignment.secondary_phy is not None:
                self._send_to_phy(assignment.secondary_phy, message)
            return
        if isinstance(message, StartRequest):
            self._send_to_phy(assignment.primary_phy, message)
            if assignment.secondary_phy is not None:
                self._send_to_phy(assignment.secondary_phy, message)
            return
        if isinstance(message, (UlTtiRequest, DlTtiRequest, TxDataRequest)):
            active, standby = self._roles_for_slot(assignment, message.slot)
            self._send_to_phy(active, message)
            self.stats.real_requests_sent += 1
            if standby is None or isinstance(message, TxDataRequest):
                return  # TX_DATA has no null counterpart; the standby needs none.
            # A dormant standby's null is booked from its kind, cell and
            # slot, not built (core/standby.py); one it cannot book has
            # woken it and is sent.
            sleeper = self.dormancy.sleeping.get(standby)
            if sleeper is None or not sleeper.book(
                int(isinstance(message, DlTtiRequest)), message.cell_id, message.slot
            ):
                self._send_to_phy(standby, self._null_counterpart(message))
            self.stats.null_requests_sent += 1
            return
        # Other control messages follow the current primary.
        self._send_to_phy(assignment.primary_phy, message)

    def _roles_for_slot(
        self, assignment: CellAssignment, slot: int
    ) -> Tuple[int, Optional[int]]:
        """(active, standby) PHY ids for a given slot's FAPI messages."""
        if (
            assignment.migration_slot is not None
            and assignment.migration_dest is not None
            and slot >= assignment.migration_slot
        ):
            active = assignment.migration_dest
            standby = (
                assignment.draining_phy
                if assignment.draining_phy is not None
                else assignment.primary_phy
            )
            if standby == active:
                standby = None
            return active, standby
        return assignment.primary_phy, assignment.secondary_phy

    def _null_counterpart(self, message: FapiMessage) -> FapiMessage:
        """The null FAPI request keeping the standby alive for this UL or
        DL TTI request's slot."""
        if isinstance(message, UlTtiRequest):
            return null_ul_tti(message.cell_id, message.slot)
        return null_dl_tti(message.cell_id, message.slot)

    def _send_to_phy(self, phy_id: Optional[int], message: FapiMessage) -> None:
        if phy_id is None:
            return
        mac = self.phy_orion_macs.get(phy_id)
        if mac is None:
            return
        datagram = OrionDatagram(message=message, phy_id=phy_id, is_response=False)
        self.stats.messages_relayed += 1
        self.stats.bytes_on_wire += datagram.wire_bytes
        frame = EthernetFrame(
            src=self.mac,
            dst=mac,
            ethertype=EtherType.IPV4,
            payload=datagram,
            wire_bytes=datagram.wire_bytes,
        )
        self.uplink.send(frame)

    # ------------------------------------------------------------------
    # PHYs -> L2 (responses) and switch notifications
    # ------------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, ingress: Link) -> None:
        payload = frame.payload
        if isinstance(payload, FailureNotification):
            self._on_failure_notification(payload)
            return
        if not isinstance(payload, OrionDatagram):
            return
        self._queue.submit(payload.wire_bytes, self._route_response, payload)

    def _route_response(self, datagram: OrionDatagram) -> None:
        message = datagram.message
        assignment = self.cells.get(message.cell_id)
        if assignment is None:
            return
        if self._accept_response(assignment, datagram):
            self.stats.messages_relayed += 1
            active, _ = self._roles_for_slot(assignment, message.slot)
            if datagram.phy_id == active:
                self._note_response(assignment)
            channel = self.shm_to_l2_by_cell.get(message.cell_id, self.shm_to_l2)
            if not isinstance(message, SlotIndication):
                channel.send(message)
        else:
            self.stats.responses_dropped += 1

    # ------------------------------------------------------------------
    # Response watchdog (gray-failure backstop, §6.2)
    # ------------------------------------------------------------------
    # A hung PHY keeps emitting fronthaul heartbeats — the in-switch
    # detector sees a healthy server — while its FAPI responses stop.
    # The L2-side Orion is the one vantage point that observes the
    # response stream, so it runs a per-cell silence watchdog: if the
    # active PHY produces no accepted response for
    # ``response_watchdog_slots`` slots, Orion fails the cell over
    # without waiting for a switch notification that will never come.
    def _watchdog_threshold_ns(self) -> int:
        return RESPONSE_WATCHDOG_SLOTS * self.slot_clock.slot_duration_ns

    def _note_response(self, assignment: CellAssignment) -> None:
        assignment.last_response_ns = self.sim.now
        if not assignment.watchdog_pending:
            assignment.watchdog_pending = True
            self.sim.schedule(
                self._watchdog_threshold_ns(),
                self._watchdog_check,
                assignment,
            )

    def _watchdog_check(self, assignment: CellAssignment) -> None:
        assignment.watchdog_pending = False
        if assignment.migration_slot is not None:
            return  # A migration is in flight; it resets the tracking.
        last = assignment.last_response_ns
        if last is None:
            return
        if self.sim.now - last < self._watchdog_threshold_ns():
            # Fresh responses arrived; re-check when the current silence
            # window would expire.
            assignment.watchdog_pending = True
            self.sim.at(
                last + self._watchdog_threshold_ns(),
                self._watchdog_check,
                assignment,
            )
            return
        # Silence exceeded the threshold: the active PHY is gray-failed.
        if assignment.primary_phy in assignment.failed_phys:
            return  # Failure already accounted (pooled-standby denial).
        self.stats.watchdog_fires += 1
        self.trace.record(
            self.sim.now,
            "orion.response_watchdog_fired",
            cell=assignment.cell_id,
            phy=assignment.primary_phy,
            silent_ns=self.sim.now - last,
        )
        dest = self._failover_dest(assignment)
        if dest is None:
            self._note_failover_impossible(assignment, assignment.primary_phy)
            return
        self.stats.watchdog_failovers += 1
        self.stats.failovers_handled += 1
        self._start_migration(
            assignment,
            dest=dest,
            boundary=self.slot_clock.slot_at(self.sim.now) + FAILOVER_SLOT_MARGIN,
            failover=True,
        )

    def _accept_response(
        self, assignment: CellAssignment, datagram: OrionDatagram
    ) -> bool:
        """Only the slot's active PHY's responses reach the L2 — except
        that an old primary is drained: its responses for pre-boundary
        slots stay welcome while its pipeline empties (Fig 7)."""
        slot = datagram.message.slot
        active, _ = self._roles_for_slot(assignment, slot)
        if datagram.phy_id == active:
            if (
                assignment.migration_slot is not None
                and datagram.phy_id == assignment.draining_phy
            ):
                # The old primary is still producing pre-boundary output
                # from its slot pipeline (Fig 7); count the drain.
                self.stats.drained_responses += 1
            return True
        if (
            datagram.phy_id == assignment.draining_phy
            and assignment.migration_slot is not None
            and slot < assignment.migration_slot
            and self.slot_clock.slot_at(self.sim.now) <= assignment.drain_until_slot
        ):
            self.stats.drained_responses += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Migration orchestration
    # ------------------------------------------------------------------
    def _on_failure_notification(self, notification: FailureNotification) -> None:
        """The switch detected a dead PHY: fail over every affected cell."""
        self.trace.record(
            self.sim.now, "orion.failure_notified", phy=notification.phy_id
        )
        acted = False
        for assignment in self.cells.values():
            if assignment.primary_phy != notification.phy_id:
                continue
            if assignment.migration_slot is not None:
                continue  # A migration is already in flight.
            if notification.phy_id in assignment.failed_phys:
                # Already accounted: a denied primary stays failed until
                # an operator revives it — duplicate notifications must
                # not inflate counters or claim a re-warmed pool seat.
                continue
            dest = self._failover_dest(assignment)
            if dest is None:
                # Degraded mode: the cell is down until an operator
                # intervenes — make that observable instead of silent.
                self._note_failover_impossible(assignment, notification.phy_id)
                acted = True
                continue
            self.stats.failovers_handled += 1
            self._start_migration(
                assignment,
                dest=dest,
                boundary=self.slot_clock.slot_at(self.sim.now)
                + FAILOVER_SLOT_MARGIN,
                failover=True,
            )
            acted = True
        if not acted:
            self.stats.notifications_ignored += 1

    def _failover_dest(self, assignment: CellAssignment) -> Optional[int]:
        """The standby to promote for a failover, or ``None`` when the
        cell is degraded — no standby, or the pooled-standby gate denied
        the warm seat (shared pool exhausted)."""
        if assignment.secondary_phy is None:
            return None
        if self.standby_gate is not None and not self.standby_gate(assignment):
            return None
        return assignment.secondary_phy

    def _note_failover_impossible(
        self, assignment: CellAssignment, phy_id: int
    ) -> None:
        self.stats.failovers_impossible += 1
        if self.standby_gate is not None:
            # Pooled-standby mode: pin the dead primary so the same
            # failure is counted exactly once across the notification and
            # watchdog paths, however many duplicates are in flight.
            assignment.failed_phys.add(phy_id)
        self.trace.record(
            self.sim.now,
            "orion.failover_impossible",
            cell=assignment.cell_id,
            phy=phy_id,
        )

    def planned_migration(self, cell_id: int) -> int:
        """Operator/controller-initiated migration; returns the boundary slot."""
        assignment = self.cells[cell_id]
        if assignment.secondary_phy is None:
            raise RuntimeError(f"cell {cell_id} has no secondary PHY")
        boundary = self.slot_clock.slot_at(self.sim.now) + PLANNED_SLOT_MARGIN
        self._start_migration(
            assignment, dest=assignment.secondary_phy, boundary=boundary, failover=False
        )
        return boundary

    def _start_migration(
        self, assignment: CellAssignment, dest: int, boundary: int, failover: bool
    ) -> None:
        self.dormancy.wake()
        self.stats.migrations_initiated += 1
        assignment.migration_slot = boundary
        assignment.migration_dest = dest
        assignment.draining_phy = None if failover else assignment.primary_phy
        assignment.drain_until_slot = boundary + DRAIN_SLOTS
        assignment.migration_seq += 1
        # The response watchdog re-arms on the new primary's first output.
        assignment.last_response_ns = None
        old_primary = assignment.primary_phy
        commands = (
            # Trigger the fronthaul flip in the switch data plane.
            MigrateOnSlot(ru_id=assignment.ru_id, dest_phy_id=dest, slot=boundary),
            # Re-arm monitoring: watch the new primary, stop watching the old.
            SetMonitor(phy_id=old_primary, enabled=False),
            SetMonitor(phy_id=dest, enabled=True),
        )
        for command in commands:
            self._send_command(command)
        # The command path is a single unacknowledged packet each; under
        # injected loss the migration would silently never commit. The
        # commands are idempotent (the switch ignores duplicates of an
        # already-committed boundary), so blind retransmission is safe.
        spacing = (
            COMMAND_RETX_SPACING_SLOTS * self.slot_clock.slot_duration_ns
        )
        for attempt in range(1, COMMAND_RETX_COUNT + 1):
            self.sim.schedule(
                attempt * spacing,
                self._retransmit_commands,
                assignment,
                assignment.migration_seq,
                commands,
            )
        self.trace.record(
            self.sim.now,
            "orion.migration_started",
            cell=assignment.cell_id,
            dest_phy=dest,
            boundary=boundary,
            failover=failover,
        )
        # Finalize roles once the boundary + draining window passes.
        finalize_at = self.slot_clock.slot_start(assignment.drain_until_slot + 1)
        self.sim.at(
            max(finalize_at, self.sim.now),
            self._finalize_migration,
            assignment,
            dest,
            old_primary,
            failover,
        )

    def _finalize_migration(
        self,
        assignment: CellAssignment,
        dest: int,
        old_primary: int,
        failover: bool,
    ) -> None:
        if assignment.migration_dest != dest:
            return  # Superseded by a newer migration.
        self.dormancy.wake()
        assignment.primary_phy = dest
        # After a planned migration the old primary becomes the standby;
        # after a failover there is no standby until one is initialized.
        assignment.secondary_phy = None if failover else old_primary
        if failover:
            assignment.failed_phys.add(old_primary)
        assignment.migration_slot = None
        assignment.migration_dest = None
        assignment.draining_phy = None
        self.trace.record(
            self.sim.now,
            "orion.migration_finalized",
            cell=assignment.cell_id,
            primary=dest,
            secondary=assignment.secondary_phy,
        )
        if failover and self.on_failover is not None:
            self.on_failover(assignment.cell_id, dest)

    def initialize_secondary(self, cell_id: int, phy_id: int) -> None:
        """Spawn PHY processing for this cell on a new standby server,
        replaying the stored initialization messages (§6.3)."""
        assignment = self.cells[cell_id]
        if assignment.stored_config is None:
            raise RuntimeError(f"cell {cell_id} has no stored initialization")
        self.dormancy.wake()
        # The operator standing a server back up clears its failure record
        # (mirrors the injector's revive path) so it is eligible again.
        assignment.failed_phys.discard(phy_id)
        assignment.secondary_phy = phy_id
        self._send_to_phy(phy_id, assignment.stored_config)
        self._send_to_phy(phy_id, StartRequest(cell_id=cell_id))
        self.trace.record(
            self.sim.now, "orion.secondary_initialized", cell=cell_id, phy=phy_id
        )

    def _retransmit_commands(
        self, assignment: CellAssignment, seq: int, commands: tuple
    ) -> None:
        if assignment.migration_seq != seq:
            return  # Superseded by a newer migration.
        for command in commands:
            self._send_command(command)
        self.stats.commands_retransmitted += len(commands)

    def _send_command(self, command) -> None:
        """Send a Slingshot command packet into the switch."""
        frame = EthernetFrame(
            src=self.mac,
            dst=MacAddress(0x02_5A_5A_00_00_02),  # Consumed by the pipeline.
            ethertype=EtherType.SLINGSHOT,
            payload=command,
            wire_bytes=SLINGSHOT_CMD_BYTES,
        )
        self.uplink.send(frame)
