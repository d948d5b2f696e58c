"""Order oracle for the event queue: the live engine against the legacy heap.

``repro.sim.engine`` keeps one lane keyed by instant: a heap of distinct
``time << 32 | tie`` keys, each holding its entries FIFO.
``tests/engine_legacy.py`` is the engine before any of that — one
dataclass entry per event on a plain heap ordered by (time, tie, seq) —
and draws the same tie keys under ``tie_shuffle_seed``. A seeded
schedule generator (reserved stream ``perf.engine_order_oracle``) writes
programs of same-instant bursts, zero delays, cancels, periodic cancel /
re-arm, ``stop`` calls and ``run_until`` limits that fall on a shared
instant, and each runs on both engines under FIFO and two tie-shuffle
seeds. Every fire (instant, tag) and every run call's return (clock,
live events, events fired and, while nothing was compacted, entries
queued) must be equal. Churn schedules lower ``COMPACTION_THRESHOLD`` so
compaction rebuilds the queue mid-program; every schedule ends with a
cancelled entry alone at the head past a ``run_until`` limit, which both
engines drop.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.sim import engine as engine_module
from repro.sim.engine import Simulator
from repro.sim.rng import BatchedIntegers, RngRegistry
from tests.corpora import CORPUS_SEED
from tests.engine_legacy import LegacySimulator

SCHEDULES = 24
#: FIFO and two tie-shuffle seeds.
SEEDS = (None, 1, 2)
#: One-shot tags a program may create; later fires act no more.
MAX_TAGS = 240
GRAIN_NS = 10
HORIZON_NS = 3_000
DELAYS = (0, 0, 10, 20, 50, 100, 137, 500)
PERIODS = (50, 100, 250)
#: The lowered threshold of churn schedules.
CHURN_THRESHOLD = 4
#: A cancel names one of this many most recent tags.
RECENT_TAGS = 24


@dataclass(frozen=True)
class Schedule:
    index: int
    #: Compaction runs mid-program (``COMPACTION_THRESHOLD`` lowered).
    churn: bool
    #: Instants of the initial one-shots (tags 0, 1, ...).
    initial: Tuple[int, ...]
    #: (period, first_at) of each periodic.
    periodics: Tuple[Tuple[int, int], ...]
    #: Per tag, what its fire does: ("schedule", delay), ("at", offset),
    #: ("cancel", fraction of ``RECENT_TAGS``), ("periodic", lane,
    #: offset) — cancel the lane if armed, else re-arm it ``offset`` from
    #: now —, ("watchdog", delay) — cancel the watchdog and arm it anew,
    #: as Orion's response watchdog churns — or ("stop",).
    actions: Tuple[Tuple[Tuple[Any, ...], ...], ...]
    #: ("until", instant) or ("step",); the program then ends as every
    #: schedule does (:meth:`Program.drive`).
    runs: Tuple[Tuple[Any, ...], ...]


def generate_schedules(count: int = SCHEDULES) -> List[Schedule]:
    rng = RngRegistry(CORPUS_SEED).stream("perf.engine_order_oracle")

    def pick(*options):
        return options[int(rng.integers(0, len(options)))]

    def instant(high: int) -> int:
        return int(rng.integers(0, high // GRAIN_NS)) * GRAIN_NS

    schedules = []
    for index in range(count):
        churn = index % 3 == 2
        # Few distinct instants, so bursts share them.
        hot = [instant(HORIZON_NS // 2) for _ in range(int(rng.integers(3, 8)))]
        initial = tuple(
            pick(*hot) if rng.random() < 0.7 else instant(HORIZON_NS // 2)
            for _ in range(int(rng.integers(8, 30)))
        )
        periodics = tuple(
            (pick(*PERIODS), pick(*hot)) for _ in range(int(rng.integers(1, 4)))
        )
        cancel_rate = 0.45 if churn else 0.15
        actions = []
        for _ in range(MAX_TAGS):
            fire = []
            for _ in range(int(rng.integers(0, 4))):
                roll = rng.random()
                if roll < cancel_rate:
                    fire.append(("cancel", float(rng.random())))
                elif roll < cancel_rate + 0.08:
                    fire.append(("periodic", int(rng.integers(0, len(periodics))),
                                 pick(0, GRAIN_NS, 3 * GRAIN_NS, 77)))
                elif roll < cancel_rate + 0.11:
                    fire.append(("stop",))
                elif roll < cancel_rate + 0.3:
                    fire.append(("at", instant(HORIZON_NS // 3) + pick(0, 1)))
                else:
                    fire.append(("schedule", pick(*DELAYS)))
            if churn and rng.random() < 0.7:
                fire.append(("watchdog", pick(300, 1_000, 2_000)))
            actions.append(tuple(fire))
        runs = []
        limit = 0
        while limit < HORIZON_NS:
            roll = rng.random()
            if roll < 0.2:
                runs.append(("step",))
            else:
                # On a burst's instant, just before one, or anywhere.
                target = pick(*hot) + pick(0, 0, -1, instant(HORIZON_NS // 4))
                limit = max(limit, target)
                runs.append(("until", limit))
                limit += pick(0, 1, GRAIN_NS)
        schedules.append(Schedule(
            index=index, churn=churn, initial=initial, periodics=periodics,
            actions=tuple(actions), runs=tuple(runs),
        ))
    return schedules


CORPUS = generate_schedules()


class Program:
    """One schedule on one engine; ``log`` is everything compared."""

    def __init__(self, schedule: Schedule, sim: Any) -> None:
        self.schedule = schedule
        self.sim = sim
        #: What the schedule reached (``test_corpus_reaches_the_cases_it_names``).
        self.reached: Dict[str, int] = {}
        self.draining = False
        self.log: List[Tuple[Any, ...]] = []
        self.handles: Dict[int, list] = {}
        self.watchdog: Optional[list] = None
        self.next_tag = 0
        self.lanes = [
            sim.schedule_periodic(period, self.tick, lane, first_at=first_at)
            for lane, (period, first_at) in enumerate(schedule.periodics)
        ]
        self.ticks = [0] * len(self.lanes)
        for when in schedule.initial:
            self.spawn(when)

    def note(self, case: str) -> None:
        self.reached[case] = self.reached.get(case, 0) + 1

    def spawn(self, when: int) -> None:
        if self.next_tag < MAX_TAGS:
            tag = self.next_tag
            self.next_tag += 1
            self.handles[tag] = self.sim.at(when, self.fire, tag)

    def tick(self, lane: int) -> None:
        self.log.append(("tick", self.sim.now, lane))
        self.ticks[lane] += 1
        if self.ticks[lane] % 3 == 0:
            self.note("zero_delay")
            self.spawn(self.sim.now)

    def expire(self) -> None:
        self.log.append(("expire", self.sim.now))

    def fire(self, tag: int) -> None:
        sim = self.sim
        self.log.append(("fire", sim.now, tag))
        for action in self.schedule.actions[tag]:
            kind = action[0]
            if kind == "schedule":
                if action[1] == 0:
                    self.note("zero_delay")
                self.spawn(sim.now + action[1])
            elif kind == "at":
                self.spawn(max(sim.now, action[1]))
            elif kind == "cancel":
                handle = self.handles.get(
                    self.next_tag - 1 - int(action[1] * RECENT_TAGS)
                )
                if handle is not None:
                    if handle[3] is not None:
                        self.note("cancel")
                    sim.cancel(handle)
            elif kind == "periodic" and not self.draining:
                lane = self.lanes[action[1]]
                if lane.pending:
                    self.note("periodic_cancel")
                    lane.cancel()
                else:
                    self.note("periodic_re_arm")
                    lane.re_arm(first_at=sim.now + action[2])
            elif kind == "watchdog":
                if self.watchdog is not None:
                    sim.cancel(self.watchdog)
                self.watchdog = sim.schedule(action[1], self.expire)
            elif kind == "stop":
                if self.queued_at(sim.now) > 0:
                    self.note("stop_inside_an_instant")
                sim.stop()

    def queued_at(self, when: int) -> int:
        """Live entries queued at ``when``, read on the legacy heap (the
        reach test's engine); 0 on the live engine, which reaches nothing."""
        if not isinstance(self.sim, LegacySimulator):
            return 0
        return sum(
            1 for entry in self.sim._queue if entry.time == when and entry.handle[3] is not None
        )

    def returned(self, call: str, result: Any = None) -> None:
        sim = self.sim
        record = (call, result, sim.now, sim.pending_events, sim.events_processed)
        if not self.schedule.churn:
            # Nothing was compacted: the live engine still holds exactly
            # the entries, cancelled ones too, that the legacy heap does.
            if isinstance(sim, Simulator):
                assert sim.compactions == 0
                record += (sim.pending_events + sim._cancelled_in_queue,)
            else:
                record += (len(sim._queue),)
        self.log.append(record)

    def drive(self) -> List[Tuple[Any, ...]]:
        sim = self.sim
        for call in self.schedule.runs:
            if call[0] == "until":
                # A step may have passed the limit.
                limit = max(call[1], sim.now)
                if self.queued_at(limit) >= 2:
                    self.note("limit_on_a_shared_instant")
                sim.run_until(limit)
                self.returned("until")
            else:
                self.returned("step", sim.step())
        # Every schedule ends the same way: the periodics stop, the
        # one-shots drain (fires re-arm no periodic now), and a cancelled
        # entry alone at the head past a run_until limit is dropped.
        self.draining = True
        for lane in self.lanes:
            lane.cancel()
        while sim.pending_events:
            sim.run()
        sim.run()  # Drops the cancelled entries a stopped run left.
        self.returned("drained")
        sim.cancel(sim.schedule(100, self.fire, 0))
        self.note("cancelled_head_past_the_limit")
        sim.run_until(sim.now + 50)
        self.returned("until")
        return self.log


def run(schedule: Schedule, engine: type, seed: Optional[int]) -> Program:
    with pytest.MonkeyPatch.context() as patch:
        if schedule.churn:
            patch.setattr(engine_module, "COMPACTION_THRESHOLD", CHURN_THRESHOLD)
        program = Program(schedule, engine(tie_shuffle_seed=seed))
        program.drive()
    return program


@pytest.mark.parametrize("seed", SEEDS, ids=("fifo", "shuffle1", "shuffle2"))
@pytest.mark.parametrize("schedule", CORPUS, ids=lambda s: f"s{s.index}")
def test_live_engine_fires_as_the_legacy_heap(schedule, seed):
    live = run(schedule, Simulator, seed)
    assert live.log == run(schedule, LegacySimulator, seed).log
    assert sum(1 for entry in live.log if entry[0] == "fire") > len(schedule.initial)


def test_shuffled_ties_fire_apart_from_fifo():
    """The tie-shuffle seeds reorder same-instant fires (so the oracle
    checks the tie in the key), and every schedule fires the same events
    under each."""
    moved = 0
    for schedule in CORPUS:
        fifo = run(schedule, Simulator, None).log
        for seed in SEEDS[1:]:
            shuffled = run(schedule, Simulator, seed).log
            moved += shuffled != fifo
    assert moved > len(CORPUS)


def test_corpus_reaches_the_cases_it_names():
    reached: Dict[str, int] = {}
    for schedule in CORPUS:
        legacy = run(schedule, LegacySimulator, None)
        for case, count in legacy.reached.items():
            reached[case] = reached.get(case, 0) + count
        fires = [entry[1] for entry in legacy.log if entry[0] in ("fire", "tick")]
        reached["same_instant_burst"] = reached.get("same_instant_burst", 0) + (
            len(set(fires)) < len(fires)
        )
        if schedule.churn:
            reached["compaction"] = (
                reached.get("compaction", 0) + run(schedule, Simulator, None).sim.compactions
            )
    cases = ("same_instant_burst", "zero_delay", "cancel", "periodic_cancel",
             "periodic_re_arm", "stop_inside_an_instant", "limit_on_a_shared_instant",
             "cancelled_head_past_the_limit", "compaction")
    assert {case: reached.get(case, 0) > 0 for case in cases} == dict.fromkeys(cases, True), reached


# ----------------------------------------------------------------------
# The run loop's exits from an instant it is draining
# ----------------------------------------------------------------------
#: Tie keys drawn from {0, 1, 2} under a tie seed: with full 32-bit ties
#: two entries almost never share an instant, so a shuffled run would
#: never drain one. Both engines draw one tie per push from the stream.
NARROW_TIES = 3


def _cancelled_head_past_the_limit(sim, fire, actions, notes):
    """A shared instant past ``run_until``'s limit whose head is
    cancelled: the live entry behind it waits for the next call, and a
    wholly cancelled instant inside the limit is dropped on the way."""
    head = sim.at(100, fire, "a")
    for tag in ("b", "c"):
        sim.at(100, fire, tag)
    sim.cancel(sim.at(90, fire, "x"))
    sim.cancel(head)
    sim.at(300, fire, "z")
    return [("until", 95), ("until", 99), ("until", 100), ("until", 400)]


def _stop_inside_an_instant(sim, fire, actions, notes):
    """``stop()`` from the second of four entries at one instant: the
    rest wait for the next run call, and the clock stays at the stop."""
    for tag in ("a", "b", "c", "d"):
        sim.at(100, fire, tag)
    sim.at(200, fire, "e")
    actions["b"] = sim.stop
    return [("until", 300), ("until", 300), ("run",)]


def _compaction_inside_a_shared_instant(sim, fire, actions, notes):
    """The instant's first entry cancels enough to compact the queue,
    two of them behind it in the same instant; the live ones left there
    fire once each, and so does a zero-delay push from one of them."""
    handles = {
        tag: sim.at(when, fire, tag)
        for tag, when in (
            ("a", 100), ("x1", 100), ("b", 100), ("x2", 100), ("c", 100),
            ("x3", 150), ("x4", 150), ("x5", 200), ("x6", 250), ("d", 300),
        )
    }

    def cancel_six():
        for tag in ("x1", "x2", "x3", "x4", "x5", "x6"):
            sim.cancel(handles[tag])

    actions["a"] = cancel_six
    actions["b"] = lambda: sim.schedule(0, fire, "e")
    return [("until", 400)]


def _push_ahead_of_the_instant(sim, fire, actions, notes):
    """Every fire at the burst's instant pushes two more there; under a
    tie seed some land on a key ahead of the entries still queued in the
    instant being drained, and fire before them."""
    handles = {}
    spawned = [0]

    def burst(tag):
        def push():
            for _ in range(2):
                if spawned[0] < 40:
                    spawned[0] += 1
                    child = f"z{spawned[0]}"
                    actions[child] = burst(child)
                    handles[child] = sim.schedule(0, fire, child)
            if isinstance(sim, Simulator):
                key = sim.now << 32 | handles[tag][1]
                queued = sim._buckets.get(key)
                if type(queued) is not list and queued and sim._instants[0] < key:
                    notes["push_ahead"] = notes.get("push_ahead", 0) + 1
        return push

    for tag in ("a", "b", "c", "d", "e", "f"):
        actions[tag] = burst(tag)
        handles[tag] = sim.at(100, fire, tag)
    return [("until", 100)]


DRAIN_CASES = {
    "cancelled_head_past_the_limit": (_cancelled_head_past_the_limit, None),
    "stop_inside_an_instant": (_stop_inside_an_instant, None),
    "compaction_inside_a_shared_instant": (_compaction_inside_a_shared_instant, 4),
    "push_ahead_of_the_instant": (_push_ahead_of_the_instant, None),
}


def drive_drain_case(name: str, engine: type, seed: Optional[int]):
    """(log, notes, simulator) of one scripted case on one engine."""
    case, threshold = DRAIN_CASES[name]
    log: List[Tuple[Any, ...]] = []
    notes: Dict[str, int] = {}
    actions: Dict[str, Any] = {}
    with pytest.MonkeyPatch.context() as patch:
        if threshold is not None:
            patch.setattr(engine_module, "COMPACTION_THRESHOLD", threshold)
        sim = engine(tie_shuffle_seed=seed)
        if seed is not None:
            ties = BatchedIntegers(
                np.random.Generator(np.random.PCG64(seed)), 0, NARROW_TIES
            )
            if isinstance(sim, Simulator):
                sim._tie_stream = ties
            else:
                sim._ties = ties

        def fire(tag):
            log.append(("fire", sim.now, tag))
            action = actions.get(tag)
            if action is not None:
                action()

        for call in case(sim, fire, actions, notes):
            if call[0] == "until":
                sim.run_until(call[1])
            else:
                sim.run()
            record = (call, sim.now, sim.pending_events, sim.events_processed)
            if threshold is None:
                # Uncompacted: both engines hold the same entries, cancelled too.
                record += (
                    sim.pending_events + sim._cancelled_in_queue
                    if isinstance(sim, Simulator) else len(sim._queue),
                )
            log.append(record)
    return log, notes, sim


@pytest.mark.parametrize("seed", SEEDS, ids=("fifo", "shuffle1", "shuffle2"))
@pytest.mark.parametrize("name", sorted(DRAIN_CASES))
def test_drain_exits_fire_as_the_legacy_heap(name, seed):
    live, notes, sim = drive_drain_case(name, Simulator, seed)
    assert live == drive_drain_case(name, LegacySimulator, seed)[0]
    assert any(entry[0] == "fire" for entry in live)
    if name == "compaction_inside_a_shared_instant":
        assert sim.compactions >= 1
    if name == "push_ahead_of_the_instant" and seed is not None:
        assert notes.get("push_ahead", 0) > 0
