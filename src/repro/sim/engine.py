"""Event-driven simulator core.

A :class:`Simulator` owns a priority queue of timestamped callbacks. Every
node in the simulated deployment (RU, switch, PHY servers, L2 server, UEs,
core network) schedules work on the same simulator, so causality across the
whole system is expressed purely in event time.

Design notes
------------
* Time is an ``int`` number of nanoseconds (see :mod:`repro.sim.units`).
* Events at the same timestamp fire in scheduling order (FIFO), which makes
  traces deterministic and reproducible.
* The *tie-order race detector* (``Simulator(tie_shuffle_seed=...)``)
  replaces FIFO tie-breaking with a seeded random permutation of
  same-timestamp events. A correct model produces byte-identical traces
  under any seed; any divergence from the FIFO trace is a real ordering
  race (a component whose semantics depend on scheduling order rather
  than on event time).
* Heap entries are plain ``(time, tie, seq, handle)`` tuples. ``seq`` is
  unique per simulator, so tuple comparison never reaches the handle and
  ordering is exactly (time, tie, seq) — FIFO on ties unless a
  tie-shuffle key is assigned. Tuples compare in C, which is the single
  biggest win over the previous dataclass entries on churn-heavy runs.
* Cancellation is O(1): cancelled events stay in the heap but are skipped
  when popped. To keep the heap *bounded* under heavy cancel/reschedule
  churn (e.g. a watchdog re-armed every response), the simulator counts
  live cancellations and compacts the heap once cancelled entries exceed
  ``compaction_threshold`` **and** outnumber live ones — so compaction
  cost stays amortized O(1) per cancel while the queue never holds more
  than ~half garbage.
* Strictly periodic work (slot ticks, FAPI timers, heartbeats) rides a
  second lane: the **slot wheel**, a calendar queue keyed on absolute
  integer-ns fire times (:meth:`Simulator.schedule_periodic`).
  Each periodic event keeps exactly one queued occurrence; when it pops,
  the engine re-arms the next occurrence with an O(1) bucket append
  instead of an O(log n) heap push. The two lanes share one
  ``(time, tie, seq)`` total order — the engine draws the re-arm's
  tie/seq keys immediately before invoking the callback, exactly where
  the old self-rescheduling call sites drew them, so traces (and the
  tie-order race detector) are bit-identical across lanes.
* The lanes are merged only where they can meet. ``_wheel_times[0]``,
  the earliest bucket time still on record, is a horizon no wheel
  occurrence precedes (a drained bucket gives its time up at once; a
  cancelled one leaves it behind until the merge reclaims it, which
  only makes the horizon earlier). A live heap head strictly before it —
  more than eight pops in ten on a deployed cell, whose events are
  mostly link, switch and queue delays between slot boundaries — is
  popped with one compare and one ``heappop``; a heap head at or past
  the horizon, or an empty heap, takes the two-lane compare
  (:meth:`Simulator._pop_merged`). An event therefore costs one
  ``EventHandle``, one ``heappush`` and one ``heappop``;
  :meth:`Simulator.schedule` and :meth:`Simulator.at` each build and
  push it themselves rather than one calling the other.
* Wheel garbage (occurrences orphaned by :meth:`PeriodicHandle.cancel` /
  ``re_arm`` churn) is bounded by the same policy as the heap: epoch
  tokens invalidate stale occurrences in O(1), and the wheel is compacted
  once garbage exceeds ``compaction_threshold`` and outnumbers live
  occurrences (``wheel_compactions`` counts rebuilds).
* ``_pop`` is the single point through which every fired event leaves
  either lane; the telemetry engine probe (:mod:`repro.telemetry.probe`)
  hooks it to count events per subsystem without instrumenting callbacks.
"""

from __future__ import annotations

import itertools
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.rng import BatchedIntegers


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulator (e.g. scheduling in the past)."""


#: Heap entry shape: (time, tie, seq, handle).
_QueueEntry = Tuple[int, int, int, "EventHandle"]


class EventHandle:
    """Handle to a scheduled event, usable to cancel it.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.at`. Calling :meth:`cancel` before the event fires
    prevents the callback from running.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "label", "_sim")

    def __init__(
        self,
        time: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        label: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.label = label
        #: Owning simulator, for compaction accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent; safe after firing.

        Cancelling an event that already fired (or was already cancelled)
        is a cheap no-op counted in :attr:`Simulator.cancel_noops` — it
        never plants a tombstone in the queue.
        """
        if self.cancelled or self.fired:
            if self._sim is not None:
                self._sim.cancel_noops += 1
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired or cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = self.label or getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time} {name} {state}>"


class PeriodicHandle:
    """Handle to a wheel-lane periodic event (:meth:`Simulator.schedule_periodic`).

    A periodic event keeps exactly one queued *occurrence* at a time; the
    engine re-arms the next occurrence when the current one pops. ``epoch``
    is a validity token: :meth:`cancel` bumps it, orphaning any queued
    occurrence in O(1) (the stale bucket entry is skipped and reclaimed
    lazily, exactly like a cancelled heap entry). :meth:`re_arm` revives a
    cancelled handle with a fresh occurrence — the cancel/re-arm pair is
    the wheel-lane equivalent of the heap's cancel/reschedule churn.
    """

    __slots__ = (
        "period",
        "callback",
        "args",
        "cancelled",
        "fired",
        "label",
        "epoch",
        "next_time",
        "_sim",
    )

    def __init__(
        self,
        period: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        label: str = "",
    ) -> None:
        self.period = period
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: True once any occurrence has fired (kept for run-loop symmetry
        #: with :class:`EventHandle`; a fired periodic is still pending).
        self.fired = False
        self.label = label
        #: Validity token: occurrences enqueue the epoch current at arm
        #: time, and a mismatch at pop time means the occurrence is stale.
        self.epoch = 0
        #: Absolute fire time of the queued occurrence (None if cancelled).
        self.next_time: Optional[int] = None
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Stop the periodic: orphan the queued occurrence in O(1).

        Idempotent — a repeated cancel is a no-op counted in
        :attr:`Simulator.cancel_noops`, mirroring the heap lane.
        """
        if self.cancelled:
            if self._sim is not None:
                self._sim.cancel_noops += 1
            return
        self.cancelled = True
        self.epoch += 1
        self.next_time = None
        if self._sim is not None:
            self._sim._wheel_note_cancel()

    def re_arm(
        self,
        *,
        start_offset: Optional[int] = None,
        first_at: Optional[int] = None,
    ) -> None:
        """Revive a cancelled periodic with a fresh first occurrence.

        The first fire time is ``first_at`` if given, else ``now +
        start_offset`` (default ``now + period``). Re-arming a live handle
        is an error — cancel it first.
        """
        if self._sim is None:
            raise SimulationError("periodic handle is not bound to a simulator")
        if not self.cancelled:
            raise SimulationError(
                f"cannot re-arm live periodic {self.label or self.callback!r}; "
                "cancel it first"
            )
        sim = self._sim
        if first_at is None:
            offset = self.period if start_offset is None else start_offset
            first_at = sim._now + offset
        if first_at < sim._now:
            raise SimulationError(
                f"cannot re-arm at t={first_at} ns; clock is already at {sim._now} ns"
            )
        self.cancelled = False
        self.next_time = first_at
        sim._wheel_arm(self, first_at)

    @property
    def pending(self) -> bool:
        """True while the periodic is armed (cancel is the only way out)."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else f"next={self.next_time}"
        name = self.label or getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<PeriodicHandle period={self.period} {name} {state}>"


class SimClock:
    """Picklable zero-argument clock callable bound to one simulator.

    Components that need a ``now_fn``-style callback (e.g. RLC
    reassembly timers) must hold one of these rather than a
    ``lambda: sim.now`` closure: closures cannot be pickled, and the
    checkpoint subsystem snapshots whole cells by pickling the object
    graph.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    def __call__(self) -> int:
        return self.sim.now


class Simulator:
    """Discrete-event simulator with an integer-nanosecond clock.

    ``tie_shuffle_seed`` enables the tie-order race detector: when set,
    events that share a timestamp fire in a seeded-random order instead of
    FIFO. Running the same scenario under two different seeds and diffing
    the traces is a dynamic race check — identical traces mean no component
    depends on same-timestamp tie order.

    ``compaction_threshold`` bounds heap garbage: once at least that many
    cancelled entries sit in the queue *and* they outnumber live entries,
    the queue is rebuilt without them (``compactions`` counts rebuilds).
    """

    def __init__(
        self,
        start_time: int = 0,
        tie_shuffle_seed: Optional[int] = None,
        compaction_threshold: int = 64,
    ) -> None:
        if compaction_threshold < 1:
            raise ValueError(
                f"compaction_threshold must be >= 1, got {compaction_threshold}"
            )
        self._now = start_time
        self._queue: List[_QueueEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self.compaction_threshold = compaction_threshold
        #: Number of cancelled-entry heap rebuilds performed so far.
        self.compactions = 0
        #: Cancelled entries currently sitting in the heap.
        self._cancelled_in_queue = 0
        #: Slot-wheel lane: fire time -> [consume_idx, entries] where
        #: entries is a (tie, seq, handle, epoch) list sorted by (tie, seq).
        self._wheel: Dict[int, List[Any]] = {}
        #: Min-heap of bucket fire times (a bucket emptied by cancellation
        #: keeps its time here until the merged pop reclaims it).
        self._wheel_times: List[int] = []
        #: Live (armed, epoch-valid) occurrences queued in the wheel.
        self._wheel_size = 0
        #: Stale occurrences (cancel/re-arm churn) awaiting reclamation.
        self._wheel_garbage = 0
        #: Number of stale-occurrence wheel rebuilds performed so far.
        self.wheel_compactions = 0
        #: Cancels that found nothing to do (already fired / already
        #: cancelled), across both lanes. Diagnostic only.
        self.cancel_noops = 0
        self.tie_shuffle_seed = tie_shuffle_seed
        self._tie_stream: Optional[BatchedIntegers] = (
            None
            if tie_shuffle_seed is None
            else BatchedIntegers(
                np.random.Generator(np.random.PCG64(tie_shuffle_seed)),
                0,
                1 << 32,
            )
        )

    def _tie_key(self) -> int:
        """Tie-break key for a new event: 0 (FIFO) or a seeded random draw."""
        if self._tie_stream is None:
            return 0
        return self._tie_stream.draw()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        time = self._now + delay
        handle = EventHandle(time, callback, args, label, self)
        ties = self._tie_stream
        heappush(
            self._queue,
            (time, 0 if ties is None else ties.draw(), next(self._seq), handle),
        )
        return handle

    def at(
        self,
        time: int,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; clock is already at {self._now} ns"
            )
        handle = EventHandle(time, callback, args, label, self)
        ties = self._tie_stream
        heappush(
            self._queue,
            (time, 0 if ties is None else ties.draw(), next(self._seq), handle),
        )
        return handle

    def schedule_periodic(
        self,
        period: int,
        callback: Callable[..., Any],
        *args: Any,
        start_offset: Optional[int] = None,
        first_at: Optional[int] = None,
        label: str = "",
    ) -> PeriodicHandle:
        """Schedule ``callback(*args)`` every ``period`` ns on the wheel lane.

        The first occurrence fires at ``first_at`` if given, else at
        ``now + start_offset`` (default ``now + period``). Each pop re-arms
        the next occurrence at ``fire_time + period`` with an O(1) bucket
        append — the structural win over self-rescheduling heap events.
        The re-arm draws its (tie, seq) keys immediately before the
        callback runs, at the exact point the equivalent self-rescheduling
        callback would have drawn them, so traces are bit-identical across
        lanes (including under ``tie_shuffle_seed``).
        """
        if period < 1:
            raise SimulationError(f"periodic period must be >= 1 ns, got {period}")
        if first_at is None:
            offset = period if start_offset is None else start_offset
            first_at = self._now + offset
        if first_at < self._now:
            raise SimulationError(
                f"cannot schedule at t={first_at} ns; clock is already at {self._now} ns"
            )
        handle = PeriodicHandle(period, callback, args, label=label)
        handle._sim = self
        handle.next_time = first_at
        self._wheel_arm(handle, first_at)
        return handle

    # ------------------------------------------------------------------
    # Wheel lane internals
    # ------------------------------------------------------------------
    def _wheel_arm(self, handle: PeriodicHandle, time: int) -> None:
        """Enqueue one occurrence of ``handle`` at ``time``.

        Draws the (tie, seq) ordering keys here — arm order is draw order,
        matching :meth:`at` exactly.
        """
        entry = (self._tie_key(), next(self._seq), handle, handle.epoch)
        bucket = self._wheel.get(time)
        if bucket is None:
            self._wheel[time] = [0, [entry]]
            heappush(self._wheel_times, time)
        else:
            entries = bucket[1]
            last = entries[-1]
            # seq is monotonic, so FIFO arms always append; a tie-shuffle
            # draw may land anywhere at or after the consume index.
            if entry[0] > last[0] or (entry[0] == last[0] and entry[1] > last[1]):
                entries.append(entry)
            else:
                insort(entries, entry, lo=bucket[0])
        self._wheel_size += 1

    def _wheel_head(self) -> Optional[Tuple[int, int, int, PeriodicHandle]]:
        """Earliest live wheel occurrence as (time, tie, seq, handle),
        left in place. Skips and reclaims stale occurrences and drained
        buckets on the way."""
        times = self._wheel_times
        wheel = self._wheel
        while times:
            time = times[0]
            bucket = wheel.get(time)
            if bucket is None:
                heappop(times)
                continue
            idx, entries = bucket
            end = len(entries)
            while idx < end:
                tie, seq, handle, epoch = entries[idx]
                if handle.cancelled or handle.epoch != epoch:
                    idx += 1
                    self._wheel_garbage -= 1
                    continue
                bucket[0] = idx
                return (time, tie, seq, handle)
            bucket[0] = idx
            del wheel[time]
            heappop(times)
        return None

    def _wheel_consume(self, head: Tuple[int, int, int, PeriodicHandle]) -> _QueueEntry:
        """Dequeue the occurrence returned by :meth:`_wheel_head` and
        re-arm the handle's next occurrence (drawing its tie/seq keys now,
        immediately before the caller invokes the callback)."""
        time, tie, seq, handle = head
        bucket = self._wheel[time]
        bucket[0] += 1
        if bucket[0] == len(bucket[1]):
            # Drained: drop the bucket and its time (the head of
            # ``_wheel_times``) now, so the heap-only horizon in
            # :meth:`_pop` moves on to the next bucket at once.
            del self._wheel[time]
            heappop(self._wheel_times)
        self._wheel_size -= 1
        next_time = time + handle.period
        handle.next_time = next_time
        self._wheel_arm(handle, next_time)
        return (time, tie, seq, handle)

    def _wheel_note_cancel(self) -> None:
        """Called by :meth:`PeriodicHandle.cancel` while an occurrence is queued."""
        self._wheel_size -= 1
        self._wheel_garbage += 1
        if (
            self._wheel_garbage >= self.compaction_threshold
            and self._wheel_garbage >= self._wheel_size
        ):
            self._wheel_compact()

    def _wheel_compact(self) -> None:
        """Rebuild the wheel without stale occurrences.

        Bucket order is (tie, seq) with unique seq, so filtering preserves
        the exact pop sequence — compaction is invisible to execution
        order, mirroring the heap's :meth:`_compact`.
        """
        new_wheel: Dict[int, List[Any]] = {}
        times: List[int] = []
        for time, (idx, entries) in self._wheel.items():
            live = [
                entry
                for entry in entries[idx:]
                if not entry[2].cancelled and entry[2].epoch == entry[3]
            ]
            if live:
                new_wheel[time] = [0, live]
                times.append(time)
        heapify(times)
        self._wheel = new_wheel
        self._wheel_times = times
        self._wheel_garbage = 0
        self.wheel_compactions += 1

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel` while the entry is queued."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= self.compaction_threshold
            and self._cancelled_in_queue * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap order is a total order on (time, tie, seq) with unique seq,
        so re-heapifying the surviving entries reproduces the exact same
        pop sequence — compaction is invisible to execution order.
        """
        self._queue = [entry for entry in self._queue if not entry[3].cancelled]
        heapify(self._queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop(self, limit: Optional[int] = None) -> Optional[_QueueEntry]:
        """Pop the next live entry with time <= ``limit`` (None = no limit).

        A live heap head strictly earlier than ``_wheel_times[0]`` sorts
        before every wheel occurrence (stale bucket times only make that
        horizon earlier), so it is popped without looking at the wheel;
        a tie or a due bucket takes the two-lane compare in
        :meth:`_pop_merged`. Skips (and drops) cancelled entries; leaves a
        live head beyond ``limit`` in place and returns None. Every event
        that fires — from either lane — flows through here; the telemetry
        engine probe wraps this method to count events per subsystem.
        """
        queue = self._queue
        times = self._wheel_times
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            if times and head[0] >= times[0]:
                break
            if limit is not None and head[0] > limit:
                return None
            return heappop(queue)
        if times:
            return self._pop_merged(limit)
        return None

    def _pop_merged(self, limit: Optional[int]) -> Optional[_QueueEntry]:
        """Two-lane pop: compare the live heap head with the live wheel
        head and dequeue whichever sorts first on (time, tie, seq)."""
        queue = self._queue
        heap_head: Optional[_QueueEntry] = None
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            heap_head = head
            break
        wheel_head = self._wheel_head()
        if wheel_head is None:
            if heap_head is None:
                return None
            if limit is not None and heap_head[0] > limit:
                return None
            return heappop(queue)
        if heap_head is not None and heap_head[:3] <= wheel_head[:3]:
            if limit is not None and heap_head[0] > limit:
                return None
            return heappop(queue)
        if limit is not None and wheel_head[0] > limit:
            return None
        return self._wheel_consume(wheel_head)

    def step(self) -> bool:
        """Run the single next pending event. Returns False if queue is empty."""
        entry = self._pop()
        if entry is None:
            return False
        handle = entry[3]
        self._now = entry[0]
        handle.fired = True
        self._events_processed += 1
        handle.callback(*handle.args)
        return True

    def run_until(self, end_time: int) -> None:
        """Run all events with timestamps <= ``end_time``; clock ends at ``end_time``.

        Events scheduled exactly at ``end_time`` do fire.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) is in the past (now={self._now})"
            )
        self._running = True
        pop = self._pop
        try:
            while self._running:
                entry = pop(end_time)
                if entry is None:
                    break
                handle = entry[3]
                self._now = entry[0]
                handle.fired = True
                self._events_processed += 1
                handle.callback(*handle.args)
        finally:
            self._running = False
        if self._now < end_time:
            self._now = end_time

    def run_for(self, duration: int) -> None:
        """Run the simulation for ``duration`` ns of simulated time."""
        self.run_until(self._now + duration)

    def run(self) -> None:
        """Run until the event queue drains completely."""
        self._running = True
        pop = self._pop
        try:
            while self._running:
                entry = pop()
                if entry is None:
                    break
                handle = entry[3]
                self._now = entry[0]
                handle.fired = True
                self._events_processed += 1
                handle.callback(*handle.args)
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a ``run_until``/``run`` loop after the current event returns."""
        self._running = False

    def _peek_time(self) -> Optional[int]:
        """Timestamp of the next live event in either lane."""
        heap_time: Optional[int] = None
        queue = self._queue
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            heap_time = head[0]
            break
        if not self._wheel_size:
            return heap_time
        wheel_head = self._wheel_head()
        if wheel_head is None:
            return heap_time
        if heap_time is None:
            return wheel_head[0]
        return min(heap_time, wheel_head[0])

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events queued across both lanes."""
        return len(self._queue) - self._cancelled_in_queue + self._wheel_size

    @property
    def queued_entries(self) -> int:
        """Raw heap size including cancelled garbage (diagnostics/tests)."""
        return len(self._queue)

    @property
    def wheel_pending(self) -> int:
        """Live periodic occurrences queued in the wheel lane."""
        return self._wheel_size

    @property
    def wheel_entries(self) -> int:
        """Wheel occupancy including stale garbage (diagnostics/tests)."""
        return self._wheel_size + self._wheel_garbage

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self._now}ns pending={self.pending_events}>"
