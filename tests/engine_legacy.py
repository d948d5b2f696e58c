"""The pre-optimization event engine, kept verbatim as a differential
fixture (moved from ``repro/perf/legacy.py``; nothing in ``src/`` uses it).

This is the simulator core as it stood *before* the performance pass that
introduced tuple heap entries and cancelled-entry compaction in
:mod:`repro.sim.engine`: dataclass heap entries (``@dataclass(order=True)``
comparison), a ``peek + step`` run loop, O(n) ``pending_events``, and no
compaction. ``tests/test_sim_engine.py`` and ``tests/test_periodic.py``
drive it against the live engine: same program, same FIFO tie order,
same fleet digest.

It intentionally does not track the live engine's API additions
(``compactions``, ``_pop``). The deliberate exceptions: it draws the
live engine's tie keys under ``tie_shuffle_seed`` (one draw per push,
from the same seeded stream), so it orders ties as the live engine must
under any seed (``tests/test_engine_order_oracle.py``), and a stopped
``run_until`` leaves its clock where the live engine's stays; it has
``run_for`` and a **self-rescheduling** ``schedule_periodic`` adapter so
the full deployment model (whose call sites use ``schedule_periodic``)
still builds and runs on this engine, and it hands out the live
engine's handle shape — a list ``[time, tie, seq, callback, args,
periodic]`` whose callback slot is None once fired or cancelled — with
``cancel(handle)``, because that is how the model cancels. The adapter
re-schedules itself on every occurrence, before the callback — the draw
point the live engine's own re-arm reproduces, which makes this file the
order oracle for periodic events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.sim.rng import BatchedIntegers


@dataclass(order=True)
class _LegacyQueueEntry:
    """Heap entry ordered by (time, tie, seq); per-pop attribute access and
    generated dataclass comparison are exactly what the tuple entries in
    the live engine replaced."""

    time: int
    tie: int
    seq: int
    #: The handle: [time, tie, seq, callback, args, periodic].
    handle: list = field(compare=False)


class LegacyPeriodicHandle:
    """Self-rescheduling periodic adapter: every occurrence pays a full
    heap push (and the cancel/re-arm pattern plants tombstones the legacy
    engine never compacts). API-compatible with the live engine's
    :class:`~repro.sim.engine.PeriodicHandle` so the whole deployment
    model runs unchanged on this engine for baseline measurement."""

    __slots__ = ("sim", "period", "callback", "args", "cancelled", "fired", "_next")

    def __init__(
        self,
        sim: "LegacySimulator",
        period: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        first_at: int,
    ) -> None:
        self.sim = sim
        self.period = period
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._next = sim.at(first_at, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        # Re-arm first, then run: the live engine pushes the next
        # occurrence at this same point, from inside its run loop.
        self._next = self.sim.schedule(self.period, self._fire)
        self.fired = True
        self.callback(*self.args)

    def cancel(self) -> None:
        self.cancelled = True
        if self._next is not None:
            self.sim.cancel(self._next)
            self._next = None

    def re_arm(
        self,
        *,
        start_offset: Optional[int] = None,
        first_at: Optional[int] = None,
    ) -> None:
        if not self.cancelled:
            raise RuntimeError("cannot re-arm a live legacy periodic")
        if first_at is None:
            offset = self.period if start_offset is None else start_offset
            first_at = self.sim.now + offset
        self.cancelled = False
        self._next = self.sim.at(first_at, self._fire)

    @property
    def pending(self) -> bool:
        return not self.cancelled


class LegacySimulator:
    """The event engine before the perf pass; same observable semantics as
    :class:`repro.sim.engine.Simulator` minus the perf-era diagnostics.

    Cancelled entries are never removed until popped, so heavy
    cancel/reschedule churn grows the heap without bound for the run's
    duration — the failure mode the live engine's compaction fixes (and
    the ``engine_cancel_watchdog`` benchmark demonstrates).
    """

    def __init__(self, tie_shuffle_seed: Optional[int] = None) -> None:
        self.now = 0
        self._ties = (
            None
            if tie_shuffle_seed is None
            else BatchedIntegers(
                np.random.Generator(np.random.PCG64(tie_shuffle_seed)), 0, 1 << 32
            )
        )
        self._queue: List[_LegacyQueueEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._settle_hooks: List[Callable[[int], None]] = []

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._queue if entry.handle[3] is not None)

    def add_settle_hook(self, hook: Callable[[int], None]) -> None:
        """Same contract as the live engine: ``hook(now)`` whenever a
        top-level run call returns (the model's dormant standbys settle
        there)."""
        self._settle_hooks.append(hook)

    def _settle(self) -> None:
        for hook in self._settle_hooks:
            hook(self.now)

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> list:
        return self.at(self.now + delay, callback, *args)

    def at(self, time: int, callback: Callable[..., Any], *args: Any) -> list:
        tie = 0 if self._ties is None else self._ties.draw()
        seq = next(self._seq)
        handle = [time, tie, seq, callback, args, None]
        entry = _LegacyQueueEntry(time=time, tie=tie, seq=seq, handle=handle)
        heapq.heappush(self._queue, entry)
        return handle

    def cancel(self, handle: list) -> None:
        handle[3] = None

    def schedule_periodic(
        self,
        period: int,
        callback: Callable[..., Any],
        *args: Any,
        start_offset: Optional[int] = None,
        first_at: Optional[int] = None,
    ) -> LegacyPeriodicHandle:
        """Periodic work as a handle that re-schedules itself on every
        occurrence. Draw-order-compatible with the live engine (the re-arm
        precedes the callback), so FIFO trace digests match across
        engines."""
        if first_at is None:
            offset = period if start_offset is None else start_offset
            first_at = self.now + offset
        return LegacyPeriodicHandle(self, period, callback, args, first_at)

    def step(self) -> bool:
        fired = self._step()
        self._settle()
        return fired

    def _step(self) -> bool:
        while self._queue:
            entry = heapq.heappop(self._queue)
            handle = entry.handle
            callback = handle[3]
            if callback is None:
                continue
            self.now = entry.time
            handle[3] = None
            self._events_processed += 1
            callback(*handle[4])
            return True
        return False

    def run_until(self, end_time: int) -> None:
        """As the live engine's: a run ended by :meth:`stop` leaves the
        clock at the last fired event."""
        self._running = True
        try:
            while self._queue and self._running:
                head_time = self._peek_time()
                if head_time is None or head_time > end_time:
                    break
                self._step()
            stopped = not self._running
        finally:
            self._running = False
        if not stopped and self.now < end_time:
            self.now = end_time
        self._settle()

    def run_for(self, duration: int) -> None:
        self.run_until(self.now + duration)

    def run(self) -> None:
        self._running = True
        try:
            while self._queue and self._running:
                self._step()
        finally:
            self._running = False
        self._settle()

    def stop(self) -> None:
        self._running = False

    def _peek_time(self) -> Optional[int]:
        while self._queue:
            entry = self._queue[0]
            if entry.handle[3] is None:
                heapq.heappop(self._queue)
                continue
            return entry.time
        return None
