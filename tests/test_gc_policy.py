"""The collector policy's premise, held in tier-1.

Building a :class:`~repro.sim.engine.Simulator` raises CPython's
young-generation threshold to ``GC_YOUNG_THRESHOLD`` (DESIGN §9
"Collector: cost model"). That is safe only while

* a running deployment makes **no reference cycles**: a healthy cell, a
  16-cell idle fleet and a chaos branch restored from its fork base each
  run a window of slots with automatic collection off, and the
  collection that follows finds nothing (the types it did find are
  listed on failure); and
* a **dropped** deployment, which is cyclic garbage, is still reclaimed
  by the automatic collector: building and dropping fleets in a loop
  keeps the tracked-object count under a fixed bound, no
  ``gc.collect()`` in the loop.

Each guard is shown to catch the defect it exists for, built in process
as a mutant: a PHY that makes a cyclic scratch object every slot, and a
policy that disables the collector, freezes it, or raises the
threshold past any collection.
"""

import gc
from collections import Counter

import pytest

from repro.cell import CellConfig, build_slingshot_cell
from repro.cell.deployment import PhyProcess
from repro.faults.campaign import arm_plan, build_fork_base, drive_to, fork_key
from repro.faults.scenarios import scenario_by_name
from repro.fleet import FleetConfig, build_fleet
from repro.sim import engine
from repro.sim.engine import GC_YOUNG_THRESHOLD, Simulator
from repro.sim.units import MS, US

SLOT_NS = 500 * US

#: Fleets built and dropped by the leak guard, ~2.8k tracked objects
#: each: young collections under the policy (peak ~83k above the
#: baseline), while a policy that never collects passes the bound by
#: the 50th fleet (~181k at the 64th; at 48 fleets it stayed under).
LEAK_LOOP_FLEETS = 64
#: Tracked objects the loop may hold above its baseline: the young
#: generation filling to its threshold, plus what survives into the
#: middle one (the fleet alive at each collection).
LEAK_BOUND = GC_YOUNG_THRESHOLD + 40_000


def cycles_made(advance, slots: int):
    """Objects in reference cycles that ``advance(slots * slot)`` left
    unreachable, and their most common types, with automatic collection
    off for the window."""
    gc.collect()
    gc.disable()
    try:
        advance(slots * SLOT_NS)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            types = Counter(type(o).__name__ for o in gc.garbage).most_common(12)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    return found, types


def warm_cell():
    cell = build_slingshot_cell(CellConfig(seed=1))
    cell.run_until(100 * MS)
    return cell


def warm_fleet():
    fleet = build_fleet(FleetConfig(seed=0, num_cells=16))
    fleet.run_until(30 * MS)
    return fleet


class TestNoCyclesInSteadyState:
    def test_policy_raises_the_young_threshold_and_leaves_the_collector_on(self):
        Simulator()
        assert gc.get_threshold()[0] == GC_YOUNG_THRESHOLD
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_healthy_cell(self):
        cell = warm_cell()
        assert cycles_made(cell.run_for, 80) == (0, [])

    def test_idle_fleet(self):
        fleet = warm_fleet()
        assert cycles_made(fleet.run_for, 40) == (0, [])

    def test_chaos_branch_through_its_failover(self):
        """A ``crash`` branch from its warm base, over the kill, the
        detection and the migration: 120 slots from the fork point."""
        scenario = scenario_by_name()["crash"]
        base = build_fork_base(fork_key(scenario, 1))
        branch = base.restore()
        arm_plan(branch, scenario.plan)
        now = branch.cell.sim.now
        assert cycles_made(lambda ns: drive_to(branch, now + ns), 120) == (0, [])
        assert branch.cell.middlebox.stats.migrations_executed == 1

    def test_a_cyclic_scratch_per_slot_is_caught(self, monkeypatch):
        """Mutant: each PHY slot tick builds a scratch object that keeps
        a bound method of itself in a list it owns, then drops it."""

        class SlotScratch:
            def __init__(self):
                self.hooks = [self.close]

            def close(self):
                pass

        tick = PhyProcess._slot_tick

        def leaky_tick(self, *args):
            SlotScratch()
            return tick(self, *args)

        monkeypatch.setattr(PhyProcess, "_slot_tick", leaky_tick)
        cell = warm_cell()
        found, types = cycles_made(cell.run_for, 80)
        assert found > 0
        assert {"SlotScratch", "method", "list"} <= {name for name, _ in types}


def peak_tracked_over_a_build_loop():
    """Tracked objects above the baseline, at most, while fleets are
    built, run one slot and dropped; stops early past the bound. Also
    how many objects the automatic collections of the loop reclaimed."""
    reclaimed = 0

    def on_collect(phase, info):
        nonlocal reclaimed
        if phase == "stop":
            reclaimed += info["collected"]

    def tracked():
        return len(gc.get_objects()) + gc.get_freeze_count()

    gc.collect()
    baseline = tracked()
    peak = 0
    gc.callbacks.append(on_collect)
    try:
        for seed in range(LEAK_LOOP_FLEETS):
            fleet = build_fleet(FleetConfig(seed=seed, num_cells=16))
            fleet.run_for(SLOT_NS)
            del fleet
            peak = max(peak, tracked() - baseline)
            if peak > LEAK_BOUND:
                break
    finally:
        gc.callbacks.remove(on_collect)
    return peak, reclaimed


@pytest.fixture
def collector_state():
    """Put the collector back as the policy left it after a mutant."""
    threshold = gc.get_threshold()
    yield
    gc.enable()
    gc.unfreeze()
    gc.set_threshold(*threshold)
    gc.collect()


#: Policies that must not ship, each applied at every simulator build.
LEAK_MUTANTS = {
    "disable": lambda: gc.disable(),
    "freeze": lambda: gc.freeze(),
    "threshold_past_any_collection": lambda: gc.set_threshold(10**9, 10, 10),
}


class TestDroppedDeploymentsAreReclaimed:
    def test_build_and_drop_loop_stays_bounded(self):
        peak, reclaimed = peak_tracked_over_a_build_loop()
        assert peak <= LEAK_BOUND
        assert reclaimed > 0

    @pytest.mark.parametrize("name", sorted(LEAK_MUTANTS))
    def test_mutant_policy_is_caught(self, name, monkeypatch, collector_state):
        monkeypatch.setattr(engine, "_apply_gc_policy", LEAK_MUTANTS[name])
        peak, _ = peak_tracked_over_a_build_loop()
        assert peak > LEAK_BOUND, f"the build loop does not tell {name} from the policy"
