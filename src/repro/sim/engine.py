"""Event-driven simulator core.

A :class:`Simulator` owns a priority queue of timestamped callbacks. Every
node in the simulated deployment (RU, switch, PHY servers, L2 server, UEs,
core network) schedules work on the same simulator, so causality across the
whole system is expressed purely in event time.

Design notes
------------
* Time is an ``int`` number of nanoseconds (see :mod:`repro.sim.units`).
  Every entry point that takes a time or a delay — :meth:`Simulator.schedule`,
  :meth:`Simulator.at`, :meth:`Simulator.schedule_periodic` and
  :meth:`Simulator.run_until` — refuses anything whose type is not exactly
  ``int`` (a float, a ``bool``, a numpy integer) with a
  :class:`SimulationError`, in the comparison it already makes, so a
  float-seconds value cannot reach the queue however it got there.
* Events at the same timestamp fire in scheduling order (FIFO), which makes
  traces deterministic and reproducible.
* The *tie-order race detector* (``Simulator(tie_shuffle_seed=...)``)
  replaces FIFO tie-breaking with a seeded random permutation of
  same-timestamp events. A correct model produces byte-identical traces
  under any seed; any divergence from the FIFO trace is a real ordering
  race (a component whose semantics depend on scheduling order rather
  than on event time).
* The queue is one lane keyed by *instant*: a heap of distinct int keys
  (the time; ``time << 32 | tie`` under a tie-shuffle seed) and a dict
  from each key to the entry waiting there or, once the instant is
  shared, a ``deque`` of them in push order. Deployments tick in
  lockstep, so most pushes land on a queued instant and never touch the
  heap. Order is exactly (time, tie, seq): FIFO on ties unless a
  tie-shuffle key is assigned.
* An event is a plain list ``[time, tie, seq, callback, args,
  periodic]`` (``seq`` counts the pushes before it), and
  :meth:`Simulator.schedule` / :meth:`Simulator.at` return it as the
  handle. The run loop clears the callback slot (``entry[3]``) when the
  event fires and :meth:`Simulator.cancel` when it is cancelled, so
  ``handle[3] is None`` reads "fired or cancelled" and ``handle[0]`` is
  its time. Lists are unhashable: nothing keys a set or dict by a handle.
* Cancellation is O(1): a cancelled entry stays queued with its callback
  cleared and is skipped when popped. To keep the queue *bounded* under
  cancel/reschedule churn (a watchdog re-armed every response), it is
  rebuilt once cancelled entries reach :data:`COMPACTION_THRESHOLD`
  **and** outnumber live ones — amortized O(1) per cancel, never more
  than ~half garbage. Live entries are pushes less fired events less
  cancels, so nothing is counted per event for it.
* Strictly periodic work (slot ticks, FAPI timers, heartbeats) is
  :meth:`Simulator.schedule_periodic`. An occurrence is an ordinary
  event on the one lane; when it pops, the run loop pushes the next one
  **immediately before invoking the callback**, so its (tie, seq) keys
  are drawn where a callback that began by re-scheduling itself would
  draw them: ahead of anything the callback schedules, under FIFO and
  under every ``tie_shuffle_seed``. Cancelling a periodic tombstones its
  queued occurrence like any other event.
* :meth:`Simulator.schedule`, :meth:`Simulator.at` and the periodic
  re-arm each build and push an event themselves rather than one
  calling the other.
* The run loop drains the queue an instant at a time: a one-entry
  instant fires from its own short branch, and a shared instant's
  ``deque`` is emptied in place, one ``popleft`` per entry, with no call
  per event. The drain leaves the instant to the outer loop when a
  callback stops the run or, under a tie-shuffle seed, pushes a key
  ahead of the instant's; compaction filters the queue in place, so the
  deque being drained stays the instant's. Nothing wraps the loop:
  observers (``benchmarks/pop_census.py``, ``bench/spans.py``) wrap the
  callbacks where :meth:`Simulator.schedule`, :meth:`Simulator.at` and
  :meth:`Simulator.schedule_periodic` take them.
* *Settle hooks* (:meth:`Simulator.add_settle_hook`) run, in
  registration order, whenever a run call (``run_until``, ``run_for``,
  ``run``, ``step``) returns. Only a deployment's standby dormancy
  (``core/standby.py``) registers one: it brings a dormant standby's
  elided C-plane, switch and inbound books up to the clock, so anything
  read between run calls is exact. Every dormant standby has unsettled
  books at every return (its C-plane sends are drained nowhere else),
  so the hook visits them all. With none registered a run call pays one
  loop over an empty list.
* Collector policy: building the first :class:`Simulator` of a process
  raises CPython's young-generation threshold to
  :data:`GC_YOUNG_THRESHOLD`. A running deployment makes no reference
  cycles, so at the default threshold (700) the collector ran hundreds
  of young collections per fleet window that reclaimed nothing. The
  collector stays on, with its older thresholds unchanged: a dropped
  deployment or chaos branch *is* cyclic garbage and must still be
  reclaimed, which is why nothing here disables or freezes it.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.rng import BatchedIntegers


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulator (e.g. scheduling in the past)."""


def _refused(what: str, value: Any, out_of_range: str) -> SimulationError:
    """The error for a refused time argument: ``out_of_range`` for an
    ``int``, else the integer-nanoseconds refusal naming the type."""
    if type(value) is int:
        return SimulationError(out_of_range)
    return SimulationError(
        f"{what} must be integer nanoseconds, got "
        f"{type(value).__name__}: {value!r}"
    )


#: Queue entry and event handle: [time, tie, seq, callback, args,
#: periodic]; the callback slot is None once fired or cancelled.
_QueueEntry = List[Any]

#: Cancelled queue entries that, once they also outnumber live ones,
#: trigger a rebuild of the queue without them.
COMPACTION_THRESHOLD = 64

#: CPython's young-generation collection threshold once a process builds
#: a simulator: above the peak of live young objects a run reaches (about
#: 37k on a 64-cell idle fleet, 28k on a bulk-TCP cell), so a fleet's
#: measured window runs no collection where it ran ~500 at the default.
GC_YOUNG_THRESHOLD = 100_000

_gc_policy_applied = False


def _apply_gc_policy() -> None:
    """Raise the young-generation threshold, once per process; the
    middle and old thresholds are left as they are."""
    global _gc_policy_applied
    if not _gc_policy_applied:
        _gc_policy_applied = True
        _, middle, old = gc.get_threshold()
        gc.set_threshold(GC_YOUNG_THRESHOLD, middle, old)


class PeriodicHandle:
    """Handle to a periodic event (:meth:`Simulator.schedule_periodic`).

    Exactly one *occurrence* is queued at a time: an ordinary queue entry
    carrying this handle's callback and, in its ``periodic`` slot, this
    handle, replaced by the next when it pops. :meth:`cancel` tombstones
    it and :meth:`re_arm` queues a fresh one, so a cancelled occurrence
    never fires, whatever instant the re-arm names.
    """

    __slots__ = ("period", "callback", "args", "_event", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        period: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        self.period = period
        self.callback = callback
        self.args = args
        #: The queued occurrence; None while cancelled (and before the
        #: first arm). While the handle's own callback runs this is
        #: already the *next* one, so it is pending whenever it is set.
        self._event: Optional[_QueueEntry] = None
        self._sim = sim

    def _arm(self, time: int) -> None:
        """Queue the occurrence at ``time``, drawing its (tie, seq) keys
        now. Pushes directly: a re-arm is not a call to the public
        :meth:`Simulator.at` (which observers wrap to see user scheduling)."""
        sim = self._sim
        ties = sim._tie_stream
        if ties is None:
            key = time
            tie = 0
        else:
            tie = ties.draw()
            key = time << 32 | tie
        seq = sim._seq
        sim._seq = seq + 1
        self._event = event = [time, tie, seq, self.callback, self.args, self]
        buckets = sim._buckets
        queued = buckets.setdefault(key, event)
        if queued is event:
            heappush(sim._instants, key)
        elif type(queued) is list:
            buckets[key] = deque((queued, event))
        else:
            queued.append(event)

    def cancel(self) -> None:
        """Stop the periodic: cancel the queued occurrence.

        Idempotent — a repeated cancel is a no-op counted in
        :attr:`Simulator.cancel_noops`, like a repeated
        :meth:`Simulator.cancel`.
        """
        event = self._event
        if event is None:
            self._sim.cancel_noops += 1
            return
        self._event = None
        self._sim.cancel(event)

    def re_arm(self, *, first_at: Optional[int]) -> None:
        """Revive a cancelled periodic with a fresh first occurrence.

        The first fire time is ``first_at``, or ``now + period`` when
        None. Re-arming a live handle is an error — cancel it first.
        """
        if self._event is not None:
            raise SimulationError(
                f"cannot re-arm live periodic {self.callback!r}; cancel it first"
            )
        sim = self._sim
        if first_at is None:
            first_at = sim.now + self.period
        if type(first_at) is not int or first_at < sim.now:
            raise _refused(
                "periodic first occurrence",
                first_at,
                f"cannot arm periodic at t={first_at} ns; "
                f"clock is already at {sim.now} ns",
            )
        self._arm(first_at)

    @property
    def pending(self) -> bool:
        """True while the periodic is armed (cancel is the only way out)."""
        return self._event is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._event is None else f"next={self._event[0]}"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
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

    :data:`COMPACTION_THRESHOLD` bounds queue garbage: once at least that
    many cancelled entries sit in the queue *and* they outnumber live
    entries, the queue is rebuilt without them (``compactions`` counts
    rebuilds).
    """

    def __init__(self, tie_shuffle_seed: Optional[int] = None) -> None:
        _apply_gc_policy()
        #: Current simulated time in nanoseconds; only the run loop writes it.
        self.now = 0
        #: Keys of the queued instants (the time; ``time << 32 | tie``
        #: under a tie-shuffle seed), a heap.
        self._instants: List[int] = []
        #: Key -> the entry queued at that instant, or a deque of its
        #: entries in push order once it holds more than one.
        self._buckets: Dict[int, Any] = {}
        #: Entries pushed so far (the next entry's ``seq``).
        self._seq = 0
        self._running = False
        self._events_processed = 0
        #: Entries cancelled while queued, so far.
        self._cancels = 0
        #: Number of cancelled-entry queue rebuilds performed so far.
        self.compactions = 0
        #: Cancelled entries currently sitting in the queue.
        self._cancelled_in_queue = 0
        #: Cancels that found nothing to do (already fired / already
        #: cancelled). Diagnostic only.
        self.cancel_noops = 0
        self.tie_shuffle_seed = tie_shuffle_seed
        #: Called as ``hook(now)`` whenever a run call returns.
        self._settle_hooks: List[Callable[[int], None]] = []
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

    def add_settle_hook(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(now)`` whenever a run call returns (module notes)."""
        self._settle_hooks.append(hook)

    def _settle(self) -> None:
        for hook in self._settle_hooks:
            hook(self.now)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, callback: Callable[..., Any], *args: Any
    ) -> _QueueEntry:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant. Returns the
        queue entry, which :meth:`cancel` takes.
        """
        if type(delay) is not int or delay < 0:
            raise _refused(
                "delay", delay, f"cannot schedule {delay} ns in the past"
            )
        time = self.now + delay
        ties = self._tie_stream
        if ties is None:
            key = time
            tie = 0
        else:
            tie = ties.draw()
            key = time << 32 | tie
        seq = self._seq
        self._seq = seq + 1
        entry = [time, tie, seq, callback, args, None]
        buckets = self._buckets
        queued = buckets.setdefault(key, entry)
        if queued is entry:
            heappush(self._instants, key)
        elif type(queued) is list:
            buckets[key] = deque((queued, entry))
        else:
            queued.append(entry)
        return entry

    def at(self, time: int, callback: Callable[..., Any], *args: Any) -> _QueueEntry:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if type(time) is not int or time < self.now:
            raise _refused(
                "time",
                time,
                f"cannot schedule at t={time} ns; clock is already at {self.now} ns",
            )
        ties = self._tie_stream
        if ties is None:
            key = time
            tie = 0
        else:
            tie = ties.draw()
            key = time << 32 | tie
        seq = self._seq
        self._seq = seq + 1
        entry = [time, tie, seq, callback, args, None]
        buckets = self._buckets
        queued = buckets.setdefault(key, entry)
        if queued is entry:
            heappush(self._instants, key)
        elif type(queued) is list:
            buckets[key] = deque((queued, entry))
        else:
            queued.append(entry)
        return entry

    def schedule_periodic(
        self,
        period: int,
        callback: Callable[..., Any],
        *args: Any,
        first_at: Optional[int] = None,
    ) -> PeriodicHandle:
        """Schedule ``callback(*args)`` every ``period`` ns.

        The first occurrence fires at ``first_at`` if given, else at
        ``now + period``; each occurrence
        queues the next, ``period`` later, before its callback runs (the
        module notes say why there).
        """
        if type(period) is not int or period < 1:
            raise _refused(
                "period", period, f"periodic period must be >= 1 ns, got {period}"
            )
        handle = PeriodicHandle(self, period, callback, args)
        handle.re_arm(first_at=first_at)
        return handle

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def cancel(self, handle: _QueueEntry) -> None:
        """Prevent a scheduled event from firing. Idempotent; safe after
        firing.

        Cancelling an event that already fired (or was already cancelled)
        is a cheap no-op counted in :attr:`cancel_noops` — it never plants
        a tombstone in the queue.
        """
        if handle[3] is None:
            self.cancel_noops += 1
            return
        handle[3] = None
        self._cancels += 1
        cancelled = self._cancelled_in_queue = self._cancelled_in_queue + 1
        if cancelled >= COMPACTION_THRESHOLD and cancelled >= self.pending_events:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries, in place.

        Survivors keep their keys and, within a bucket, their push order,
        so the rebuilt queue pops the exact same sequence — compaction is
        invisible to execution order. The heap, the dict and every
        surviving ``deque`` stay the same objects, so a run loop that is
        draining one of them mid-instant goes on draining it.
        """
        buckets = self._buckets
        for key, queued in list(buckets.items()):
            if type(queued) is list:
                if queued[3] is None:
                    del buckets[key]
                continue
            live = [entry for entry in queued if entry[3] is not None]
            queued.clear()
            if live:
                queued.extend(live)
            else:
                del buckets[key]
        instants = self._instants
        instants[:] = buckets
        heapify(instants)
        self._cancelled_in_queue = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop(self, limit: Optional[int] = None) -> Optional[_QueueEntry]:
        """Pop the next live entry with time <= ``limit`` (None = no limit).

        Skips (and drops) cancelled entries; leaves a live head beyond
        ``limit`` in place and returns None. :meth:`step` pops through
        here, and so does a run that reaches an instant past its limit.
        """
        instants = self._instants
        buckets = self._buckets
        while instants:
            key = instants[0]
            queued = buckets[key]
            shared = type(queued) is not list
            head = queued[0] if shared else queued
            if head[3] is not None and limit is not None and head[0] > limit:
                return None
            if not shared:
                del buckets[key]
                heappop(instants)
            else:
                queued.popleft()
                if not queued:
                    del buckets[key]
                    heappop(instants)
            if head[3] is None:
                self._cancelled_in_queue -= 1
                continue
            return head
        return None

    def step(self) -> bool:
        """Run the single next pending event. Returns False if queue is empty."""
        entry = self._pop()
        if entry is None:
            return False
        self.now = time = entry[0]
        callback = entry[3]
        entry[3] = None
        self._events_processed += 1
        periodic = entry[5]
        if periodic is not None:
            periodic._arm(time + periodic.period)
        callback(*entry[4])
        self._settle()
        return True

    def _run(self, limit: Optional[int]) -> bool:
        """Fire events with time <= ``limit`` until none is left (True) or
        :meth:`stop` ends the loop first (False).

        An instant leaves the queue before its entries fire: a lone entry
        at once, a shared instant's ``deque`` when its last entry is taken
        off, so a push at the current instant from the last callback
        starts a new one. Every entry of an instant has its time, so one
        check against ``limit`` covers it; past the limit, :meth:`_pop`
        drops the cancelled entries ahead of the first live one, as the
        run's last pop always has.
        """
        self._running = True
        instants = self._instants
        buckets = self._buckets
        shuffled = self._tie_stream is not None
        try:
            while instants:
                key = instants[0]
                queued = buckets[key]
                if type(queued) is list:
                    callback = queued[3]
                    if callback is None:
                        del buckets[key]
                        heappop(instants)
                        self._cancelled_in_queue -= 1
                        continue
                    time = queued[0]
                    if limit is not None and time > limit:
                        return True
                    del buckets[key]
                    heappop(instants)
                    self.now = time
                    queued[3] = None
                    self._events_processed += 1
                    periodic = queued[5]
                    if periodic is not None:
                        periodic._arm(time + periodic.period)
                    callback(*queued[4])
                    if not self._running:
                        return False
                    continue
                time = queued[0][0]
                if limit is not None and time > limit:
                    self._pop(limit)
                    return True
                popleft = queued.popleft
                while queued:
                    entry = popleft()
                    if not queued:
                        del buckets[key]
                        heappop(instants)
                    callback = entry[3]
                    if callback is None:
                        self._cancelled_in_queue -= 1
                        continue
                    self.now = time
                    entry[3] = None
                    self._events_processed += 1
                    periodic = entry[5]
                    if periodic is not None:
                        periodic._arm(time + periodic.period)
                    callback(*entry[4])
                    if not self._running:
                        return False
                    if shuffled and queued and instants[0] != key:
                        break  # A tie drawn ahead of this instant's key.
            return True
        finally:
            self._running = False

    def run_until(self, end_time: int) -> None:
        """Run all events with timestamps <= ``end_time``; clock ends at ``end_time``.

        Events scheduled exactly at ``end_time`` do fire. A run ended by
        :meth:`stop` leaves the clock at the last fired event: earlier
        events may still be queued, and the clock never steps back to them.
        """
        if type(end_time) is not int or end_time < self.now:
            raise _refused(
                "end_time",
                end_time,
                f"run_until({end_time}) is in the past (now={self.now})",
            )
        if self._run(end_time) and self.now < end_time:
            self.now = end_time
        self._settle()

    def run_for(self, duration: int) -> None:
        """Run the simulation for ``duration`` ns of simulated time."""
        self.run_until(self.now + duration)

    def run(self) -> None:
        """Run until the event queue drains completely."""
        self._run(None)
        self._settle()

    def stop(self) -> None:
        """Stop a ``run_until``/``run`` loop after the current event returns."""
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events queued."""
        return self._seq - self._events_processed - self._cancels

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now}ns pending={self.pending_events}>"
