"""Differential test: the deadline-driven detector against the eager model.

The runtime evaluates the switch's timer-tick stream arithmetically and
keeps one heap event at the earliest possible saturation
(:mod:`repro.core.failure_detector`). The model it replaced — a
:class:`~tests.packetgen.PacketGenerator` firing ``on_timer_tick`` once
per tick period — lives on here as :class:`EagerMiddlebox`. Both are
driven with the same schedules of heartbeats, ``set_monitor`` flips,
``reconfigure_detector`` calls, direct counter writes and state reads,
and must agree on every detection time, trace record, notification
arrival, counter value read and ``DetectorStats`` field.

Every scheduled operation is armed one link latency (1 µs) before it
runs, the way ``Link._deliver`` arms a packet, so under FIFO a tick and
an operation at the same nanosecond resolve tick-first in the eager
model — the convention the deadline-driven detector hard-codes.

A heartbeat applies no tick: it writes its zero and records the PHY's
*lag*, which the next sync (the deadline event, ``counters``, ``stats``,
``set_monitor``) leaves out of that PHY's share. The generated schedules
therefore land heartbeats between syncs, interleave all three kinds of
read, and put operations on the exact nanosecond of a grid tick, of a
grid's origin and inside the last microsecond before a tick (where the
deadline a read arms pops *after* a coincident heartbeat);
``test_corpus_reaches_the_lag_cases`` counts each. ``TestMutantsAreCaught``
applies three one-line mutants to the live detector and requires the
schedules to tell each from the per-tick model. Census (of the 8 named
lag schedules + the 12 FIFO corpus seeds, how many differ from the model):

* ``lag_not_cleared_at_sync`` — 4 named + 12 generated;
* ``zero_swallows_the_saturating_tick`` (a heartbeat that finds the
  deadline still queued at its own nanosecond records a lag instead of
  applying the tick first) — 1 named + 11 generated;
* ``lag_recorded_at_the_origin`` (tick 0, still to come, counted as
  elapsed) — 1 named + 1 generated.

ISSUE 22 named two other mutants — lag not added in
``_ticks_to_saturation``, a stale lag kept on an already-applied tick —
that have no live line here: ``_arm`` derives its target right after a
sync, when the lag map is empty (and a target without the lag is early,
never late), and a heartbeat always overwrites its own entry. The two
above are the nearest lines that exist.
"""

from dataclasses import asdict

import pytest

from repro.core.commands import FailureNotification
from repro.core.failure_detector import DetectorConfig, FailureDetector
from repro.core.fh_middlebox import FronthaulMiddlebox
from repro.experiments.sec52_detector import phase_branches
from repro.net.addresses import MacAddress
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, US
from tests.conftest import mutated
from tests.packetgen import PacketGenerator

ORION_MAC = MacAddress(0x30)
PHYS = (0, 1, 2)
#: How far ahead of its instant an operation is armed (a link's latency).
LEAD_NS = 1_000
PERIOD_NS = DetectorConfig().tick_period_ns
THRESHOLD = DetectorConfig().ticks_per_timeout
SHUFFLE_SEEDS = (1, 2, 3)
#: The generated FIFO schedules (with coincidences).
CORPUS_SEEDS = range(12)


class EagerMiddlebox(FronthaulMiddlebox):
    """The per-tick event model: one engine event per timer packet."""

    def install_on(self, switch):
        switch.pipeline = self
        self._switch = switch
        self._start_pktgen()

    def reconfigure_detector(self, detector_config):
        monitored = self.detector.monitored_phys()
        self.config.detector = detector_config
        self.detector = FailureDetector(detector_config, notify=self._on_detected)
        for phy_id in monitored:
            self.detector.set_monitor(phy_id, True)
        self._pktgen.stop()
        self._start_pktgen()

    def _start_pktgen(self):
        self._pktgen = PacketGenerator.for_timeout(
            self.sim,
            inject=self._inject_timer,
            timeout_ns=self.config.detector.timeout_ns,
            ticks_per_timeout=self.config.detector.ticks_per_timeout,
        )

    def _inject_timer(self, tick):
        self.detector.on_timer_tick(self.sim.now)


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_frame(self, frame, ingress):
        self.received.append((self.sim.now, frame))


class Rig:
    """One middlebox on one switch with an Orion sink, driven by a schedule."""

    def __init__(self, mbox_cls, tie_shuffle_seed=None):
        self.sim = Simulator(tie_shuffle_seed=tie_shuffle_seed)
        self.trace = TraceRecorder()
        switch = Switch(self.sim)
        self.mbox = mbox_cls(self.sim, trace=self.trace)
        self.mbox.install_on(switch)
        self.orion = Sink(self.sim)
        port = switch.attach(self.orion, name="orion")
        self.mbox.set_notification_target(ORION_MAC, port.number)
        self.reads = []

    def apply(self, op):
        kind, *args = op
        detector = self.mbox.detector
        if kind == "hb":
            detector.on_heartbeat(args[0], self.sim.now)
        elif kind == "hb_after":
            # Armed at its own instant: behind whatever this instant's
            # earlier operations armed there (a deadline, tick 0).
            self.sim.at(self.sim.now, self.apply, ("hb", args[0]))
        elif kind == "mon":
            detector.set_monitor(args[0], args[1])
        elif kind == "reconf":
            self.mbox.reconfigure_detector(
                DetectorConfig(timeout_ns=args[0], ticks_per_timeout=args[1])
            )
        elif kind == "write":
            detector.counters.write(args[0], args[1])
        elif kind == "read":
            self.reads.append(self.observe())
        elif kind == "stats":
            # ``stats`` alone: a sync that does not move the deadline.
            self.reads.append((self.sim.now, asdict(detector.stats)))
        else:  # pragma: no cover
            raise ValueError(kind)

    def observe(self):
        detector = self.mbox.detector
        return (
            self.sim.now,
            [detector.counters.read(phy) for phy in PHYS],
            asdict(detector.stats),
            detector.monitored_phys(),
        )

    def _arm(self, when, op):
        self.sim.at(when, self.apply, op)

    def run(self, schedule, end_ns):
        for when, op in schedule:
            self.sim.at(when - LEAD_NS, self._arm, when, op)
        self.sim.run_until(end_ns)
        return self.outcome()

    def outcome(self):
        notifications = []
        for arrived, frame in self.orion.received:
            assert isinstance(frame.payload, FailureNotification)
            notifications.append(
                (arrived, frame.payload.phy_id, frame.payload.detected_at)
            )
        return {
            "detections": [
                (event.time, event["phy"])
                for event in self.trace.events("mbox.failure_detected")
            ],
            "notifications": notifications,
            "notifications_sent": self.mbox.stats.notifications_sent,
            "reads": self.reads,
            "final": self.observe(),
        }


def tie_free(outcome):
    """An outcome without the one thing tie order legitimately decides.

    PHYs saturating on the same tick emit their notifications at the
    same instant onto one egress link, so which of them is serialized
    first is a tie in either model. Detections become a sorted list and
    notifications a sorted list of arrival instants plus a sorted list
    of what arrived.
    """
    return {
        **outcome,
        "detections": sorted(outcome["detections"]),
        "notifications": (
            sorted(arrived for arrived, _, _ in outcome["notifications"]),
            sorted((at, phy) for _, phy, at in outcome["notifications"]),
        ),
    }


def run_both(schedule, end_ns, tie_shuffle_seed=None, setup=None):
    """Drive the eager and the deadline-driven middlebox identically."""
    outcomes = []
    for mbox_cls in (EagerMiddlebox, FronthaulMiddlebox):
        rig = Rig(mbox_cls, tie_shuffle_seed)
        if setup is not None:
            setup(rig)
        outcomes.append(rig.run(schedule, end_ns))
    eager, lazy = outcomes
    if tie_shuffle_seed is not None:
        eager, lazy = tie_free(eager), tie_free(lazy)
    assert lazy == eager
    return lazy


def tick(k, origin=0, period=PERIOD_NS):
    """Instant of grid tick ``k``."""
    return origin + k * period


# ----------------------------------------------------------------------
# Named coincidences (FIFO: tick first)
# ----------------------------------------------------------------------
class TestNamedSchedules:
    def test_silence_detects_on_the_threshold_tick(self):
        out = run_both([(LEAD_NS, ("mon", 0, True))], end_ns=2 * 450 * US)
        # Armed between tick 0 and tick 1: ticks 1..50 raise the counter.
        assert out["detections"] == [(tick(THRESHOLD), 0)]
        assert out["notifications"][0][2] == tick(THRESHOLD)

    def test_monitor_armed_at_the_origin_counts_tick_zero(self):
        """Tick 0 is armed at the origin itself, so a synchronous
        ``set_monitor`` at install time precedes it."""
        out = run_both(
            [], end_ns=2 * 450 * US,
            setup=lambda rig: rig.mbox.detector.set_monitor(0, True),
        )
        assert out["detections"] == [(tick(THRESHOLD - 1), 0)]

    def test_counter_written_to_the_brink_at_the_origin_detects_at_once(self):
        def setup(rig):
            rig.mbox.detector.set_monitor(0, True)
            rig.mbox.detector.counters.write(0, THRESHOLD - 1)

        out = run_both([], end_ns=450 * US, setup=setup)
        assert out["detections"] == [(0, 0)]

    def test_heartbeat_exactly_on_a_grid_instant_loses_to_the_tick(self):
        """The tick raises the counter, then the heartbeat clears it:
        the next 50 ticks (not 49) saturate."""
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (tick(10), ("hb", 0)),
            (tick(10), ("read",)),
        ]
        out = run_both(schedule, end_ns=2 * 450 * US)
        assert out["reads"][0][1][0] == 0
        assert out["detections"] == [(tick(10 + THRESHOLD), 0)]

    def test_heartbeat_on_the_saturating_tick_is_too_late(self):
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (tick(THRESHOLD), ("hb", 0)),
        ]
        out = run_both(schedule, end_ns=3 * 450 * US)
        assert out["detections"] == [(tick(THRESHOLD), 0)]

    def test_gap_of_threshold_minus_one_ticks_survives(self):
        hb = tick(20) + 1
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (hb, ("hb", 0)),
            # Ticks 21 .. 20+49 elapse; the heartbeat lands just before
            # tick 20+50 would saturate.
            (tick(20 + THRESHOLD) - 1, ("read",)),
            (tick(20 + THRESHOLD) - 1, ("hb", 0)),
        ]
        out = run_both(schedule, end_ns=tick(20 + THRESHOLD) + 10 * PERIOD_NS)
        assert out["reads"][0][1][0] == THRESHOLD - 1
        assert out["detections"] == []

    def test_gap_of_threshold_ticks_detects(self):
        hb = tick(20) + 1
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (hb, ("hb", 0)),
            (tick(20 + THRESHOLD) + 1, ("hb", 0)),
        ]
        out = run_both(schedule, end_ns=tick(20 + THRESHOLD) + 10 * PERIOD_NS)
        assert out["detections"] == [(tick(20 + THRESHOLD), 0)]

    def test_two_phys_saturate_on_the_same_tick(self):
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (LEAD_NS, ("mon", 2, True)),
            (tick(7) + 5, ("hb", 0)),
            (tick(7) + 900, ("hb", 2)),
        ]
        out = run_both(schedule, end_ns=3 * 450 * US)
        assert sorted(out["detections"]) == [
            (tick(7 + THRESHOLD), 0), (tick(7 + THRESHOLD), 2),
        ]
        assert out["notifications_sent"] == 2

    def test_rearm_after_a_report_detects_again(self):
        rearm = tick(THRESHOLD + 5) + 17
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (rearm, ("mon", 0, True)),
            (rearm + 1, ("read",)),
        ]
        out = run_both(schedule, end_ns=4 * 450 * US)
        assert out["detections"] == [
            (tick(THRESHOLD), 0), (tick(2 * THRESHOLD + 5), 0),
        ]
        assert out["reads"][0][2]["false_positives_rearmed"] == 1

    def test_monitor_off_then_on_restarts_the_window(self):
        schedule = [
            (LEAD_NS, ("mon", 1, True)),
            (tick(30) + 3, ("mon", 1, False)),
            (tick(60) + 3, ("read",)),
            (tick(90) + 3, ("mon", 1, True)),
        ]
        out = run_both(schedule, end_ns=tick(200))
        assert out["detections"] == [(tick(90 + THRESHOLD), 1)]

    def test_direct_write_pulls_the_saturation_earlier(self):
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (tick(5) + 100, ("write", 0, THRESHOLD - 3)),
        ]
        out = run_both(schedule, end_ns=2 * 450 * US)
        assert out["detections"] == [(tick(5 + 3), 0)]

    def test_reconfigure_restarts_the_grid_at_its_own_instant(self):
        """The new tick stream starts at the reconfigure call, with the
        new period; monitored PHYs are re-armed from zero."""
        at = tick(12) + 4_321
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (at, ("reconf", 200 * US, 20)),
            (at + 55 * US, ("read",)),
        ]
        out = run_both(schedule, end_ns=at + 3 * 200 * US)
        # Tick 0 of the new grid is the reconfigure instant: 20 ticks
        # of 10 us saturate on new tick 19.
        assert out["detections"] == [(at + 19 * 10 * US, 0)]
        # Stats belong to the new detector: ticks 0..5 by at + 55 us.
        assert out["reads"][0][2]["ticks_processed"] == 6

    def test_heartbeats_between_syncs_leave_the_other_phys_their_ticks(self):
        """Three heartbeats of PHY 0 with no read in between: PHY 1, never
        refreshed, is still charged every tick and saturates on time, and
        PHY 0's window restarts at its last heartbeat."""
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (LEAD_NS, ("mon", 1, True)),
            (tick(10) + 3_500, ("hb", 0)),
            (tick(20) + 3_500, ("hb", 0)),
            (tick(30) + 3_500, ("hb", 0)),
            (tick(40) + 3_500, ("stats",)),
        ]
        out = run_both(schedule, end_ns=3 * 450 * US)
        assert out["reads"][0][1]["ticks_processed"] == 41
        assert out["detections"] == [
            (tick(THRESHOLD), 1), (tick(30 + THRESHOLD), 0),
        ]

    def test_lag_is_spent_by_one_sync_only(self):
        """A heartbeat, a stats read (the sync that settles its lag),
        then silence: the later syncs charge the PHY every tick."""
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (tick(10) + 3_500, ("hb", 0)),
            (tick(12) + 3_500, ("stats",)),
            (tick(14) + 3_500, ("read",)),
        ]
        out = run_both(schedule, end_ns=3 * 450 * US)
        assert out["reads"][1][1][0] == 4
        assert out["detections"] == [(tick(10 + THRESHOLD), 0)]

    def test_heartbeat_ahead_of_the_deadline_queued_at_its_instant(self):
        """A write inside the last microsecond before tick 5 arms the
        deadline *after* the coincident heartbeat was armed, so the
        heartbeat pops first — and still loses to the saturating tick."""
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (tick(5) - 400, ("write", 0, THRESHOLD - 1)),
            (tick(5), ("hb", 0)),
        ]
        out = run_both(schedule, end_ns=2 * 450 * US)
        assert out["detections"] == [(tick(5), 0)]

    def test_reconfigure_on_the_saturating_tick_still_detects(self):
        """Stopping the grid is a touch too: the tick at its nanosecond
        comes first, even when the deadline would pop after it."""
        schedule = [
            (LEAD_NS, ("mon", 0, True)),
            (tick(5) - 400, ("write", 0, THRESHOLD - 1)),
            (tick(5), ("reconf", 200 * US, 20)),
        ]
        out = run_both(schedule, end_ns=tick(5) + 100 * US)
        assert out["detections"] == [(tick(5), 0)]

    def test_heartbeat_at_the_origin_precedes_tick_zero(self):
        """A synchronous heartbeat at install time is followed by tick 0,
        like a ``set_monitor`` there."""
        def setup(rig):
            rig.mbox.detector.set_monitor(0, True)
            rig.mbox.detector.on_heartbeat(0, 0)

        out = run_both([], end_ns=2 * 450 * US, setup=setup)
        assert out["detections"] == [(tick(THRESHOLD - 1), 0)]

    def test_heartbeat_at_the_origin_after_tick_zero(self):
        """Tick 0 applied by a deadline at the origin, then a heartbeat
        at the same nanosecond: the zero covers no later tick."""
        def setup(rig):
            rig.mbox.detector.set_monitor(0, True)
            rig.mbox.detector.set_monitor(1, True)
            rig.mbox.detector.counters  # Arms the deadline on tick 0.
            rig.sim.at(0, rig.apply, ("hb", 0))

        out = run_both([(tick(3) + 10, ("read",))], end_ns=2 * 450 * US, setup=setup)
        assert out["reads"][0][1][:2] == [3, 4]
        assert out["detections"] == [(tick(THRESHOLD - 1), 1), (tick(THRESHOLD), 0)]

    def test_orphaned_detector_of_a_reconfigure_stays_silent(self):
        """Deployments schedule ``set_monitor`` on the detector object
        that existed at build time; after ``reconfigure_detector`` that
        object is an orphan and arming it must do nothing."""
        outcomes = []
        for mbox_cls in (EagerMiddlebox, FronthaulMiddlebox):
            rig = Rig(mbox_cls)
            orphan = rig.mbox.detector
            rig.sim.schedule(5 * PERIOD_NS, orphan.set_monitor, 0, True)
            rig.mbox.reconfigure_detector(DetectorConfig(timeout_ns=300 * US))
            outcomes.append(rig.run([], end_ns=3 * 450 * US))
            assert rig.sim.pending_events <= 1  # no orphan deadline left
        assert outcomes[0] == outcomes[1]
        assert outcomes[1]["detections"] == []


# ----------------------------------------------------------------------
# Generated schedules
# ----------------------------------------------------------------------
def generated_schedule(seed, coincide):
    """A random op mix over ~6 ms from a test-local stream.

    Grid instants keep their origin's sub-microsecond residue because
    every tick period is a whole number of microseconds: 0 for the
    install-time grid, ``1 + j`` for the grid of the j-th reconfigure.
    Ordinary operations sit at residues 500..899 on strictly increasing
    microseconds, so they never meet a tick or each other and tie order
    cannot matter. With ``coincide`` a quarter of them move onto the next
    grid instant instead, some share their predecessor's instant, and
    two composites appear: a counter written to the brink inside the last
    microsecond before a tick with that PHY's heartbeat on the tick (the
    deadline the write arms pops after the heartbeat), and a reconfigure
    followed, on the new origin's nanosecond, by a heartbeat or by a
    read and a heartbeat armed behind the deadline that read puts on
    tick 0.
    """
    rng = RngRegistry(seed).stream("test.detector_deadline")
    schedule = []
    base = 2_000
    origin, period, threshold = 0, PERIOD_NS, THRESHOLD
    reconfigures = 0
    when = base
    for index in range(220):
        base += int(rng.integers(1, 60)) * 1_000
        roll = float(rng.random())
        phy = int(rng.integers(0, len(PHYS)))
        if coincide and roll < 0.04:
            # Residue 100..499 of the microsecond that ends on a tick.
            when = origin + -(-(base + 1_000 - origin) // period) * period
            schedule.append(
                (when - 1_000 + 100 + index % 400, ("write", phy, threshold - 1))
            )
            schedule.append((when, ("hb", phy)))
            base = (when // 1_000 + 1) * 1_000
            continue
        if coincide and roll < 0.25:
            when = origin + -(-(base - origin) // period) * period
            base = (when // 1_000 + 1) * 1_000
        elif coincide and roll < 0.35:
            pass  # same instant as the previous operation
        else:
            when = base + 500 + index % 400
        kind = float(rng.random())
        if kind < 0.46:
            op = ("hb", phy)
        elif kind < 0.64:
            op = ("mon", phy, bool(rng.random() < 0.7))
        elif kind < 0.74:
            op = ("write", phy, int(rng.integers(0, THRESHOLD + 10)))
        elif kind < 0.78:
            ticks = int(rng.integers(5, 60))
            tick_us = int(rng.integers(3, 15))
            op = ("reconf", ticks * tick_us * US, ticks)
            reconfigures += 1
            when = base + reconfigures
            origin, period, threshold = when, tick_us * US, ticks
        elif kind < 0.88:
            op = ("stats",)
        else:
            op = ("read",)
        schedule.append((when, op))
        if coincide and op[0] == "reconf" and roll < 0.6:
            # On the new origin's nanosecond: ahead of tick 0, or behind it.
            if roll < 0.3:
                schedule.append((when, ("hb", phy)))
            else:
                schedule.append((when, ("read",)))
                schedule.append((when, ("hb_after", phy)))
    return schedule, base + 3 * 450 * US


class TestGeneratedSchedules:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_fifo_with_coincidences(self, seed):
        schedule, end_ns = generated_schedule(seed, coincide=True)
        out = run_both(schedule, end_ns)
        assert out["final"][2]["ticks_processed"] > 0

    @pytest.mark.parametrize("shuffle", SHUFFLE_SEEDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_tie_shuffled_without_coincidences(self, seed, shuffle):
        schedule, end_ns = generated_schedule(100 + seed, coincide=False)
        fifo = run_both(schedule, end_ns)
        shuffled = run_both(schedule, end_ns, tie_shuffle_seed=shuffle)
        assert shuffled == tie_free(fifo)

    def test_generated_schedules_do_detect(self):
        """The generator is not vacuous: across the seeds above both
        detections and re-arms occur."""
        detections = rearms = 0
        for seed in range(12):
            schedule, end_ns = generated_schedule(seed, coincide=True)
            out = Rig(FronthaulMiddlebox).run(schedule, end_ns)
            detections += len(out["detections"])
            rearms += out["final"][2]["false_positives_rearmed"]
        assert detections >= 12 and rearms >= 1


def test_corpus_reaches_the_lag_cases(monkeypatch):
    """Census of the FIFO corpus on the live detector: heartbeats whose
    zero covers unapplied ticks, that land on an already-applied tick, on
    a grid's origin, or on the nanosecond of the queued deadline, and
    syncs from the deadline and from reads that settle a recorded lag."""
    saw = dict.fromkeys(
        ("lagged", "on_applied_tick", "at_the_origin", "deadline_queued",
         "settled_by_deadline", "settled_by_read", "two_lags_in_one_sync"), 0
    )
    inner_heartbeat = FailureDetector.on_heartbeat
    inner_advance = FailureDetector.advance
    inner_deadline = FailureDetector._on_deadline
    in_deadline = [False]

    def on_heartbeat(self, phy_id, now_ns=None):
        if self._sim is not None:
            deadline = self._deadline
            if deadline is not None and deadline.time <= self._sim.now:
                saw["deadline_queued"] += 1
            elif self._sim.now == self._grid_origin_ns:
                saw["at_the_origin"] += 1
            else:
                inner_heartbeat(self, phy_id, now_ns)
                saw["lagged" if self._lag[phy_id] else "on_applied_tick"] += 1
                return
        inner_heartbeat(self, phy_id, now_ns)

    def advance(self, ticks, last_tick_ns):
        lags = sum(1 for lag in self._lag.values() if lag)
        if lags:
            saw["settled_by_deadline" if in_deadline[0] else "settled_by_read"] += 1
            saw["two_lags_in_one_sync"] += lags > 1
        return inner_advance(self, ticks, last_tick_ns)

    def on_deadline(self, target):
        in_deadline[0] = True
        inner_deadline(self, target)
        in_deadline[0] = False

    monkeypatch.setattr(FailureDetector, "on_heartbeat", on_heartbeat)
    monkeypatch.setattr(FailureDetector, "advance", advance)
    monkeypatch.setattr(FailureDetector, "_on_deadline", on_deadline)
    for seed in CORPUS_SEEDS:
        schedule, end_ns = generated_schedule(seed, coincide=True)
        Rig(FronthaulMiddlebox).run(schedule, end_ns)
    assert all(saw.values()), saw


# ----------------------------------------------------------------------
# Mutants of the live code
# ----------------------------------------------------------------------
MUTANTS = {
    # The lag outlives the sync that settled it and is left out again.
    "lag_not_cleared_at_sync": ("advance", "lag.clear()", "pass"),
    # A heartbeat that meets the deadline still queued at its own
    # nanosecond records a lag that covers the tick about to saturate.
    "zero_swallows_the_saturating_tick": (
        "on_heartbeat",
        "deadline is not None and deadline.time <= sim.now",
        "False",
    ),
    # A heartbeat at the origin counts tick 0, still to come, as elapsed,
    # and its zero covers it.
    "lag_recorded_at_the_origin": ("on_heartbeat", "elif elapsed:", "else:"),
}


def named_schedules():
    """The lag schedules of :class:`TestNamedSchedules`, as run_both calls."""
    cases = TestNamedSchedules()
    return [
        cases.test_heartbeats_between_syncs_leave_the_other_phys_their_ticks,
        cases.test_lag_is_spent_by_one_sync_only,
        cases.test_heartbeat_ahead_of_the_deadline_queued_at_its_instant,
        cases.test_heartbeat_at_the_origin_after_tick_zero,
        cases.test_heartbeat_at_the_origin_precedes_tick_zero,
        cases.test_reconfigure_on_the_saturating_tick_still_detects,
        cases.test_heartbeat_exactly_on_a_grid_instant_loses_to_the_tick,
        cases.test_gap_of_threshold_minus_one_ticks_survives,
    ]


class TestMutantsAreCaught:
    def test_unmutated_code_passes_the_same_loop(self):
        assert self.caught() == (0, 0)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant(self, name, monkeypatch):
        attribute, old, new = MUTANTS[name]
        monkeypatch.setattr(
            FailureDetector,
            attribute,
            mutated(getattr(FailureDetector, attribute), old, new),
        )
        assert sum(self.caught()) > 0, f"no schedule tells {name} from the model"

    @staticmethod
    def caught():
        """(named, generated) schedules on which the two models differ."""
        named = 0
        for case in named_schedules():
            try:
                case()
            except AssertionError:
                named += 1
        generated = 0
        for seed in CORPUS_SEEDS:
            schedule, end_ns = generated_schedule(seed, coincide=True)
            eager = Rig(EagerMiddlebox).run(schedule, end_ns)
            generated += Rig(FronthaulMiddlebox).run(schedule, end_ns) != eager
        return named, generated


# ----------------------------------------------------------------------
# The watchdog at every hang phase (the kill and planned-migration phases
# are §5.2's and §8.2's own sweeps, gated in test_experiments_smoke.py)
# ----------------------------------------------------------------------
def test_the_watchdog_catches_a_hang_at_every_phase():
    """A hang keeps the heartbeats flowing, so the switch never detects
    it; the L2 Orion's response watchdog must, at every phase. One warm
    default cell, forked into a PHY 0 hang at each of the 56 tick-period
    offsets that cover a slot, each branch run 8 ms on.

    A silent check re-arms to ``last response + threshold``, so the
    silence a fire reports is exactly ``response_watchdog_slots`` slots;
    the fire trails the hang by at most that plus the one slot in which
    output the PHY already had in flight still arrives.
    """
    cell, warm, instants = phase_branches()
    assert len(instants) == 56
    threshold = cell.l2_orion.config.response_watchdog_slots * cell.slot_ns
    delay = {}
    for phase, hang_at in enumerate(instants):
        branch = warm.restore()
        branch.sim.at(hang_at, branch.phy_servers[0].phy.hang, "phase")
        branch.sim.run_until(hang_at + 8 * MS)
        fired = branch.trace.events("orion.response_watchdog_fired")
        assert branch.trace.count("mbox.failure_detected") == 0, phase
        assert len(fired) == 1, (phase, fired)
        assert fired[0]["silent_ns"] == threshold, (phase, fired[0])
        assert branch.trace.count("mbox.migration_committed") == 1, phase
        delay[phase] = fired[0].time - hang_at
    worst = max(delay, key=delay.get)
    assert delay[worst] <= threshold + cell.slot_ns, (
        f"max fire - hang {delay[worst]} ns at phase {worst}, "
        f"min {min(delay.values())} ns; allowed <= {threshold + cell.slot_ns}"
    )


# ----------------------------------------------------------------------
# What the deadline buys
# ----------------------------------------------------------------------
class TestDeadlineEvent:
    def test_healthy_heartbeats_cost_a_handful_of_events(self):
        """Heartbeats every 100 us for 45 ms: the eager model pops 5000
        ticks, the deadline model a few hundred re-derivations — and the
        modelled tick count is the same."""
        schedule = [(LEAD_NS, ("mon", 0, True))] + [
            (100 * US * k + 1, ("hb", 0)) for k in range(1, 450)
        ]
        eager, lazy = Rig(EagerMiddlebox), Rig(FronthaulMiddlebox)
        assert lazy.run(schedule, 45_000 * US) == eager.run(schedule, 45_000 * US)
        ops = 2 * len(schedule)
        assert eager.sim.events_processed - ops == 5001
        assert lazy.sim.events_processed - ops <= 150
        assert lazy.mbox.detector.stats.ticks_processed == 5001

    def test_heartbeats_never_touch_the_deadline_event(self):
        rig = Rig(FronthaulMiddlebox)
        rig.mbox.detector.set_monitor(0, True)
        rig.sim.run_until(100 * US)
        pending = rig.mbox.detector._deadline
        for k in range(20):
            rig.sim.run_until(100 * US + k * 1_000)
            rig.mbox.detector.on_heartbeat(0, rig.sim.now)
        assert rig.mbox.detector._deadline is pending
        assert rig.sim.queued_entries == 1
