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
* Strictly periodic work (slot ticks, FAPI timers, heartbeats) is
  :meth:`Simulator.schedule_periodic`. An occurrence is an ordinary
  event on the one heap; when it pops, the run loop pushes the next one
  **immediately before invoking the callback**, so its (tie, seq) keys
  are drawn where a callback that began by re-scheduling itself would
  draw them: ahead of anything the callback schedules, under FIFO and
  under every ``tie_shuffle_seed``. Cancelling a periodic tombstones its
  queued occurrence like any other event.
* An event costs one ``EventHandle``, one ``heappush`` and one
  ``heappop``; :meth:`Simulator.schedule`, :meth:`Simulator.at` and the
  periodic re-arm each build and push it themselves rather than one
  calling the other.
* ``_pop`` is the single point through which every fired event leaves
  the queue; ``benchmarks/pop_census.py`` hooks it from outside to
  attribute wall time without instrumenting callbacks.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

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

    __slots__ = (
        "time", "callback", "args", "cancelled", "fired", "label", "periodic", "_sim"
    )

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
        #: The :class:`PeriodicHandle` this event is an occurrence of; the
        #: run loop re-arms it before the callback. None for a one-shot.
        self.periodic: Optional["PeriodicHandle"] = None
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
    """Handle to a periodic event (:meth:`Simulator.schedule_periodic`).

    Exactly one *occurrence* is queued at a time: an ordinary
    :class:`EventHandle` carrying this handle's callback, replaced by the
    next when it pops. :meth:`cancel` tombstones it and :meth:`re_arm`
    queues a fresh one, so a cancelled occurrence never fires, whatever
    instant the re-arm names.
    """

    __slots__ = ("period", "callback", "args", "label", "_event", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        period: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        label: str = "",
    ) -> None:
        self.period = period
        self.callback = callback
        self.args = args
        self.label = label
        #: The queued occurrence; None while cancelled (and before the
        #: first arm). While the handle's own callback runs this is
        #: already the *next* one, so it is pending whenever it is set.
        self._event: Optional[EventHandle] = None
        self._sim = sim

    def _arm(self, time: int) -> None:
        """Queue the occurrence at ``time``, drawing its (tie, seq) keys
        now. Pushes directly: a re-arm is not a call to the public
        :meth:`Simulator.at` (which observers wrap to see user scheduling)."""
        sim = self._sim
        event = EventHandle(time, self.callback, self.args, self.label, sim)
        event.periodic = self
        self._event = event
        ties = sim._tie_stream
        heappush(
            sim._queue,
            (time, 0 if ties is None else ties.draw(), next(sim._seq), event),
        )

    def cancel(self) -> None:
        """Stop the periodic: cancel the queued occurrence.

        Idempotent — a repeated cancel is a no-op counted in
        :attr:`Simulator.cancel_noops`, like a repeated
        :meth:`EventHandle.cancel`.
        """
        event = self._event
        if event is None:
            self._sim.cancel_noops += 1
            return
        self._event = None
        event.cancel()

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
        if self._event is not None:
            raise SimulationError(
                f"cannot re-arm live periodic {self.label or self.callback!r}; "
                "cancel it first"
            )
        sim = self._sim
        if first_at is None:
            offset = self.period if start_offset is None else start_offset
            first_at = sim.now + offset
        if first_at < sim.now:
            raise SimulationError(
                f"cannot arm periodic at t={first_at} ns; "
                f"clock is already at {sim.now} ns"
            )
        self._arm(first_at)

    @property
    def pending(self) -> bool:
        """True while the periodic is armed (cancel is the only way out)."""
        return self._event is not None

    @property
    def next_time(self) -> Optional[int]:
        """Absolute fire time of the queued occurrence (None if cancelled)."""
        return None if self._event is None else self._event.time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._event is None else f"next={self._event.time}"
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
        #: Current simulated time in nanoseconds; only the run loop writes it.
        self.now = start_time
        self._queue: List[_QueueEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self.compaction_threshold = compaction_threshold
        #: Number of cancelled-entry heap rebuilds performed so far.
        self.compactions = 0
        #: Cancelled entries currently sitting in the heap.
        self._cancelled_in_queue = 0
        #: Cancels that found nothing to do (already fired / already
        #: cancelled). Diagnostic only.
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
        time = self.now + delay
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
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; clock is already at {self.now} ns"
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
        """Schedule ``callback(*args)`` every ``period`` ns.

        The first occurrence fires at ``first_at`` if given, else at
        ``now + start_offset`` (default ``now + period``); each occurrence
        queues the next, ``period`` later, before its callback runs (the
        module notes say why there).
        """
        if period < 1:
            raise SimulationError(f"periodic period must be >= 1 ns, got {period}")
        handle = PeriodicHandle(self, period, callback, args, label)
        handle.re_arm(start_offset=start_offset, first_at=first_at)
        return handle

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

        Skips (and drops) cancelled entries; leaves a live head beyond
        ``limit`` in place and returns None. Every event that fires flows
        through here, so the pop census wraps this method.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            if limit is not None and head[0] > limit:
                return None
            return heappop(queue)
        return None

    def step(self) -> bool:
        """Run the single next pending event. Returns False if queue is empty."""
        entry = self._pop()
        if entry is None:
            return False
        handle = entry[3]
        self.now = entry[0]
        handle.fired = True
        self._events_processed += 1
        periodic = handle.periodic
        if periodic is not None:
            periodic._arm(entry[0] + periodic.period)
        handle.callback(*handle.args)
        return True

    def _run(self, limit: Optional[int]) -> bool:
        """Fire events with time <= ``limit`` until none is left (True) or
        :meth:`stop` ends the loop first (False)."""
        self._running = True
        pop = self._pop
        try:
            while self._running:
                entry = pop(limit)
                if entry is None:
                    return True
                handle = entry[3]
                self.now = entry[0]
                handle.fired = True
                self._events_processed += 1
                periodic = handle.periodic
                if periodic is not None:
                    periodic._arm(entry[0] + periodic.period)
                handle.callback(*handle.args)
        finally:
            self._running = False
        return False

    def run_until(self, end_time: int) -> None:
        """Run all events with timestamps <= ``end_time``; clock ends at ``end_time``.

        Events scheduled exactly at ``end_time`` do fire. A run ended by
        :meth:`stop` leaves the clock at the last fired event: earlier
        events may still be queued, and the clock never steps back to them.
        """
        if end_time < self.now:
            raise SimulationError(
                f"run_until({end_time}) is in the past (now={self.now})"
            )
        if self._run(end_time) and self.now < end_time:
            self.now = end_time

    def run_for(self, duration: int) -> None:
        """Run the simulation for ``duration`` ns of simulated time."""
        self.run_until(self.now + duration)

    def run(self) -> None:
        """Run until the event queue drains completely."""
        self._run(None)

    def stop(self) -> None:
        """Stop a ``run_until``/``run`` loop after the current event returns."""
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events queued."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def queued_entries(self) -> int:
        """Raw heap size including cancelled garbage (diagnostics/tests)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now}ns pending={self.pending_events}>"
