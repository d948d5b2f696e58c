"""Tests for periodic events and the fleet-PHY backend.

Covers the ``schedule_periodic`` contract (cancel / re-arm / no-op
accounting, pickling mid-run), the tie-order differential against
callbacks that re-schedule themselves under ``tie_shuffle_seed`` sweeps,
a bounded heap under cancel/re-arm storms, and the vectorized fleet-PHY
backend's byte-identity to the per-cell encode path (plus the
legacy-engine fleet digest equality).
"""

import dataclasses
import hashlib
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim import engine as engine_module
from repro.sim.engine import SimulationError, Simulator

#: Seed sweep for the tie-order differential: FIFO plus shuffled ties.
TIE_SEEDS = (None, 1, 2, 7, 20260)


class _FireLog:
    """Picklable tick target: records (label, now) of the simulator it is
    pickled together with."""

    def __init__(self, sim):
        self.sim = sim
        self.entries = []

    def tick(self, label):
        self.entries.append((label, self.sim.now))


def _sequence_digest(log):
    return hashlib.sha256(repr(log).encode("ascii")).hexdigest()


class TestSchedulePeriodicApi:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(100, lambda: times.append(sim.now))
        sim.run_for(550)
        assert times == [100, 200, 300, 400, 500]

    def test_first_at_pins_first_occurrence(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        times = []
        sim.schedule_periodic(100, lambda: times.append(sim.now), first_at=45)
        sim.run_for(300)
        assert times == [45, 145, 245]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0, lambda: None)

    def test_first_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(10, lambda: None, first_at=50)

    def test_cancel_stops_future_occurrences(self):
        sim = Simulator()
        times = []
        handle = sim.schedule_periodic(100, lambda: times.append(sim.now))
        sim.run_for(250)
        handle.cancel()
        assert not handle.pending
        sim.run_for(500)
        assert times == [100, 200]

    def test_re_arm_on_live_handle_rejected(self):
        sim = Simulator()
        handle = sim.schedule_periodic(100, lambda: None)
        with pytest.raises(SimulationError):
            handle.re_arm(first_at=None)

    def test_cancel_then_re_arm_resumes(self):
        sim = Simulator()
        times = []
        handle = sim.schedule_periodic(100, lambda: times.append(sim.now))
        sim.run_for(250)
        handle.cancel()
        sim.run_for(250)  # now = 500
        handle.re_arm(first_at=sim.now + 50)
        sim.run_for(300)
        assert times == [100, 200, 550, 650, 750]

    def test_pending_events_includes_periodic_occurrences(self):
        sim = Simulator()
        sim.schedule(500, lambda: None)
        sim.schedule_periodic(100, lambda: None)
        assert sim.pending_events == 2

    def test_repeated_periodic_cancel_counts_as_noop(self):
        sim = Simulator()
        handle = sim.schedule_periodic(100, lambda: None)
        handle.cancel()
        assert sim.cancel_noops == 0
        handle.cancel()
        handle.cancel()
        assert sim.cancel_noops == 2

    def test_cancel_from_own_callback_stops_the_series(self):
        """The next occurrence is queued before the callback runs; a
        cancel from inside it must tombstone that one."""
        sim = Simulator()
        times = []
        holder = []

        def tick():
            times.append(sim.now)
            if len(times) == 3:
                holder[0].cancel()

        holder.append(sim.schedule_periodic(100, tick))
        sim.run_for(1_000)
        assert times == [100, 200, 300]
        assert not holder[0].pending and holder[0]._event is None
        assert sim.pending_events == 0
        assert sim.cancel_noops == 0

    def test_re_arm_at_the_cancelled_occurrences_instant_fires_once(self):
        """The cancelled occurrence stays queued as a tombstone at t=200;
        re-arming for that very instant must not bring it back."""
        sim = Simulator()
        times = []
        handle = sim.schedule_periodic(100, lambda: times.append(sim.now))
        sim.run_for(150)
        assert handle._event[0] == 200
        handle.cancel()
        handle.re_arm(first_at=200)
        assert sim._cancelled_in_queue == 1 and sim.pending_events == 1
        sim.run_for(200)
        assert times == [100, 200, 300]

    @pytest.mark.parametrize("seed", (None, 3, 11))
    def test_pickled_mid_run_continues_to_the_same_fire_log(self, seed):
        sim = Simulator(tie_shuffle_seed=seed)
        log = _FireLog(sim)
        # "live" and "twin" share every instant, so their order is the
        # tie key's; "back" is re-armed onto one of those instants.
        sim.schedule_periodic(100, log.tick, "live")
        sim.schedule_periodic(100, log.tick, "twin")
        dead = sim.schedule_periodic(100, log.tick, "dead")
        back = sim.schedule_periodic(70, log.tick, "back")
        sim.run_for(250)
        dead.cancel()
        back.cancel()
        back.re_arm(first_at=300)
        sim.run_for(100)
        copy_sim, copy_log, copy_back = pickle.loads(pickle.dumps((sim, log, back)))
        for each_sim, each_back in ((sim, back), (copy_sim, copy_back)):
            each_sim.run_for(300)
            each_back.cancel()
            each_sim.run_for(200)
        assert copy_log.entries == log.entries
        assert copy_sim.events_processed == sim.events_processed
        labels = [label for label, _ in log.entries]
        assert labels.count("dead") == 2
        assert [t for label, t in log.entries if label == "back"] == [
            70, 140, 210, 300, 370, 440, 510, 580, 650
        ]

    def test_cancel_after_fire_counts_as_noop(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert sim.cancel_noops == 0
        sim.cancel(handle)
        assert sim.cancel_noops == 1
        sim.cancel(handle)
        assert sim.cancel_noops == 2


def _make_self_rescheduler(sim, period, label, log):
    """A callback that re-schedules itself first (the draw point the
    engine's re-arm reproduces), then does the tick's work."""

    def tick():
        sim.schedule(period, tick)
        log.append((label, sim.now))
    return tick


def _heap_collisions(sim, log, lanes, period, rounds):
    """One-shot events landing exactly on periodic occurrence times, so
    every round is ordered by (tie, seq) alone."""
    for r in range(1, rounds + 1):
        for k in range(lanes):
            sim.at(r * period, log.append, (f"h{k}", r * period))


class TestTieOrderDifferential:
    """Same program through ``schedule_periodic`` and through callbacks
    that re-schedule themselves must produce identical firing sequences —
    for FIFO ties and for every ``tie_shuffle_seed``, with same-instant
    one-shot/periodic collisions."""

    LANES = 4
    PERIOD = 100
    ROUNDS = 10

    def _run_periodic(self, seed):
        sim = Simulator(tie_shuffle_seed=seed)
        log = []
        for i in range(self.LANES):
            sim.schedule_periodic(
                self.PERIOD,
                lambda i=i: log.append((f"w{i}", sim.now)),
            )
        _heap_collisions(sim, log, self.LANES, self.PERIOD, self.ROUNDS)
        sim.run_for(self.PERIOD * self.ROUNDS)
        return log

    def _run_heap(self, seed):
        sim = Simulator(tie_shuffle_seed=seed)
        log = []
        for i in range(self.LANES):
            tick = _make_self_rescheduler(sim, self.PERIOD, f"w{i}", log)
            sim.schedule(self.PERIOD, tick)
        _heap_collisions(sim, log, self.LANES, self.PERIOD, self.ROUNDS)
        sim.run_for(self.PERIOD * self.ROUNDS)
        return log

    @pytest.mark.parametrize("seed", TIE_SEEDS)
    def test_periodic_matches_heap_self_reschedule(self, seed):
        periodic_log = self._run_periodic(seed)
        heap_log = self._run_heap(seed)
        assert len(periodic_log) == self.LANES * self.ROUNDS * 2
        assert _sequence_digest(periodic_log) == _sequence_digest(heap_log)
        assert periodic_log == heap_log

    def test_shuffled_orders_differ_from_fifo_somewhere(self):
        # The sweep is only meaningful if the shuffle actually permutes
        # same-instant events for at least one seed.
        fifo = self._run_periodic(None)
        assert any(self._run_periodic(seed) != fifo for seed in TIE_SEEDS[1:])

    @pytest.mark.parametrize("seed", TIE_SEEDS[1:])
    def test_same_seed_is_reproducible(self, seed):
        assert self._run_periodic(seed) == self._run_periodic(seed)

    def test_fifo_matches_legacy_engine(self):
        from tests.engine_legacy import LegacySimulator

        sim = LegacySimulator()
        log = []
        for i in range(self.LANES):
            sim.schedule_periodic(
                self.PERIOD,
                lambda i=i: log.append((f"w{i}", sim.now)),
            )
        _heap_collisions(sim, log, self.LANES, self.PERIOD, self.ROUNDS)
        sim.run_for(self.PERIOD * self.ROUNDS)
        assert log == self._run_periodic(None)


class TestPeriodicChurnBounded:
    def test_cancel_re_arm_storm_keeps_heap_bounded(self, monkeypatch):
        """A crash/restart storm must not grow the heap: tombstoned
        occurrences are swept by compaction once they outnumber live
        ones."""
        monkeypatch.setattr(engine_module, "COMPACTION_THRESHOLD", 8)
        sim = Simulator()
        lanes = 4
        fired = []
        handles = [
            sim.schedule_periodic(100, fired.append, i)
            for i in range(lanes)
        ]
        most_queued = 0
        for _ in range(200):
            sim.run_for(250)
            # Several bounce cycles per round: each cancel strands the
            # just-armed occurrence as a tombstone.
            for _ in range(5):
                for handle in handles:
                    handle.cancel()
                    handle.re_arm(first_at=sim.now + 100)
                    most_queued = max(
                        most_queued, sim.pending_events + sim._cancelled_in_queue
                    )
        assert sim.pending_events == lanes
        # Live entries plus not-yet-swept tombstones stay within the
        # compaction policy's bound, forever.
        assert most_queued <= 2 * lanes + engine_module.COMPACTION_THRESHOLD
        assert sim.compactions > 0
        # Two ticks per lane per round: the re-arm at +100 and its
        # successor fire before the next bounce at +250.
        assert len(fired) == 200 * lanes * 2

    def test_cancelled_occurrence_never_fires_even_same_instant(self):
        sim = Simulator()
        fired = []
        holder = []

        def killer():
            holder[0].cancel()

        # Killer is scheduled first (lower seq), so at t=100 it runs
        # before the periodic's occurrence at the same instant — the
        # already-queued occurrence must be skipped.
        sim.at(100, killer)
        holder.append(sim.schedule_periodic(100, lambda: fired.append(sim.now)))
        sim.run_for(400)
        assert fired == []
        assert sim.pending_events == 0


def _backend_fixture():
    from repro.phy.codec import PhyCodec
    from tests.corpora import CORPUS_SEED, phy_slot_corpus

    # 8 blocks: the corpus assigns ue_id = 1 + (i % 8), and the gather
    # keys captures by (slot, ue_id), so block count must not exceed the
    # distinct-UE count.
    blocks = phy_slot_corpus(count=8)
    codec = PhyCodec(np.random.default_rng(CORPUS_SEED))
    sim = Simulator()
    phy = SimpleNamespace(sim=sim, codec=codec)
    return sim, phy, blocks


class TestFleetPhyBackend:
    def test_supplementary_path_byte_identical(self):
        """Unregistered demand (no gather plan) must still return exactly
        the per-cell encode output."""
        from repro.fleet.phy_backend import FleetPhyBackend

        sim, phy, blocks = _backend_fixture()
        backend = FleetPhyBackend()
        got = backend.encode_blocks(phy, blocks)
        want = phy.codec.encode_blocks(blocks)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert backend.stats.supplementary_blocks == len(blocks)

    def test_gathered_path_byte_identical_and_batched(self):
        from repro.fleet.phy_backend import FleetPhyBackend

        sim, phy, blocks = _backend_fixture()
        backend = FleetPhyBackend()
        abs_slot = 7
        pdus = [SimpleNamespace(ue_id=block.ue_id) for block in blocks]
        # Two "cells" sharing the same planned completion instant; their
        # captures alias the same transport blocks, as fleet islands with
        # identical MAC schedules do.
        cell = SimpleNamespace(
            captures={
                (abs_slot, block.ue_id): SimpleNamespace(block=block)
                for block in blocks
            }
        )
        sim.schedule(50, lambda: None)
        sim.run()
        backend.register(sim.now, phy, cell, abs_slot, pdus)
        backend.register(sim.now, phy, cell, abs_slot, pdus)
        got = backend.encode_blocks(phy, blocks)
        want = phy.codec.encode_blocks(blocks)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert backend.stats.supplementary_blocks == 0
        assert backend.stats.gather_passes == 1
        # Cross-plan dedup: the aliased plan adds no extra encodes.
        unique = {(block.tb_id, block.modulation) for block in blocks}
        assert backend.stats.blocks_encoded == len(unique)

    def test_cohort_only_fleet_never_enters_the_backend(self):
        """Cohort cells carry no uplink data: no completion has a PDU to
        plan or a captured block to encode, through a failover too, so
        every backend counter reads 0 and no plan is left behind."""
        from repro.fleet.composer import FleetConfig, build_fleet

        harness = build_fleet(FleetConfig(seed=1, num_cells=4))
        harness.cells[1].kill_phy_at(0, 12_000_000)
        harness.run_for(30_000_000)
        stats = dataclasses.asdict(harness.phy_backend.stats)
        assert stats and set(stats.values()) == {0}, stats
        assert harness.phy_backend._planned == {}


@pytest.mark.slow
class TestFleetBackendDifferential:
    CELLS = 6
    TRACERS = 3
    SEED = 11
    #: Long enough that tracer UEs produce uplink captures (the encode
    #: path the vectorized backend batches).
    RUN_NS = 60_000_000

    def _digest(self, detach=False, sim=None):
        from repro.fleet.composer import FleetConfig, build_fleet, fleet_digest

        harness = build_fleet(
            FleetConfig(
                seed=self.SEED,
                num_cells=self.CELLS,
                tracer_cells=self.TRACERS,
            ),
            sim=sim,
        )
        if detach:
            # What a standalone cell runs: every PHY encodes its own slot.
            for cell in harness.cells:
                for server in cell.phy_servers:
                    server.phy.phy_backend = None
        harness.run_for(self.RUN_NS)
        return fleet_digest(harness), harness

    def test_vectorized_backend_digest_identical_to_per_cell(self):
        per_cell, detached = self._digest(detach=True)
        vectorized, harness = self._digest()
        assert vectorized == per_cell
        stats = harness.phy_backend.stats
        assert stats.blocks_encoded > 0
        assert stats.cache_hits > 0
        assert detached.phy_backend.stats.kernel_invocations == 0

    def test_recorded_tracer_fleet_digest_and_kernel_counts(self):
        """A 64-cell, 2-tracer fleet for 30 ms, as recorded: the two
        differentials above compare the backend against a twin run, this
        pins the vectorized path to a golden as well (`fleet --check`
        composes no tracer cell)."""
        from repro.fleet.composer import FleetConfig, build_fleet, fleet_digest

        harness = build_fleet(FleetConfig(seed=self.SEED, num_cells=64, tracer_cells=2))
        harness.run_for(30_000_000)
        stats = harness.phy_backend.stats
        assert fleet_digest(harness) == (
            "fb5153e32a8f9c7235752afe41e291e3ea7258ab93f48114b8960bce773215d2"
        )
        # The 64 dormant standbys elide 12 events a slot each
        # (core/standby.py); 148,379 while every PHY also popped a
        # completion in D / S slots, which have no uplink; 142,875 while
        # the detector deadline popped about twice a monitored slot and
        # every RU popped a slot boundary besides its control deadline.
        assert harness.sim.events_processed == 132_178
        assert (stats.kernel_invocations, stats.blocks_encoded, stats.cache_hits) == (1, 3, 6)

    def test_legacy_engine_fleet_digest_matches_live(self):
        from tests.engine_legacy import LegacySimulator

        live, live_harness = self._digest()
        legacy, legacy_harness = self._digest(sim=LegacySimulator())
        assert legacy == live
        assert (
            legacy_harness.sim.events_processed
            == live_harness.sim.events_processed
        )
