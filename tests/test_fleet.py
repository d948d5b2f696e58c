"""Fleet composer tests: budget, pool semantics, tracer differential,
property-based chaos, accounting regression, scale, and the check gate.

The two hardening pillars of this suite:

* **Differential** — a fleet-embedded tracer cell must produce a trace
  byte-identical to a standalone single-cell run of the same config
  (island-cell property), including the per-UE canonical lines.
* **Property-based** — ~50 randomized mini-fleet chaos cases from the
  reserved ``faults.prop`` stream, each judged against greedy-token
  expectations and the standard :class:`RecoveryInvariants`, including
  same-instant pool contention (exactly-once promotion, no
  double-assign).
"""

from __future__ import annotations

import pytest

from repro.cell.deployment import build_slingshot_cell
from repro.checkpoint.snapshot import iter_object_graph
from repro.faults.injector import FaultInjector
from repro.faults.invariants import RecoveryInvariants
from repro.faults.plan import FaultPlan, ProcessFaultSpec
from repro.faults.proptest import (
    PROP_REWARM_NS,
    PROP_RUN_END_NS,
    generate_cases,
)
from repro.fleet import (
    FleetBudgetError,
    FleetConfig,
    build_fleet,
    fleet_cell_seed,
    validate_fleet_budget,
)
from repro.fleet.campaign import (
    FLEET_RUN_END_NS,
    arm_wave,
    build_fleet_base,
    fleet_config,
    judge_fleet,
    run_fleet,
)
from repro.fleet.campaign import main as fleet_main
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS
from repro.ue.ue import UserEquipment


def _commits(cell) -> int:
    return cell.trace.count("mbox.migration_committed")


def _impossible(cell) -> int:
    return cell.trace.count("orion.failover_impossible")


def _source_transitions(cell) -> int:
    return sum(
        1
        for e in cell.trace.events("ru.source_changed")
        if e.get("previous") is not None
    )


# ----------------------------------------------------------------------
# P4 budget validation
# ----------------------------------------------------------------------
class TestFleetBudget:
    def test_hundred_cells_fit_the_envelope(self):
        usage = validate_fleet_budget(100, phys_per_cell=2)
        assert all(fraction < 1.0 for fraction in usage.fraction.values())

    def test_oversized_fleet_is_rejected_with_every_overflow_listed(self):
        with pytest.raises(FleetBudgetError) as excinfo:
            validate_fleet_budget(300, phys_per_cell=2)
        message = str(excinfo.value)
        assert "300 RUs" in message
        assert "600 PHYs" in message

    def test_build_fleet_validates_before_building(self):
        with pytest.raises(FleetBudgetError):
            build_fleet(FleetConfig(num_cells=200))

    def test_cell_seeds_are_distinct_and_stable(self):
        seeds = [fleet_cell_seed(5, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [fleet_cell_seed(5, i) for i in range(100)]


# ----------------------------------------------------------------------
# Pool semantics (deterministic unit scenarios)
# ----------------------------------------------------------------------
class TestPooledStandby:
    def _mini_fleet(self, pool_size: int, rewarm_ns: int = 10_000 * MS):
        return build_fleet(
            FleetConfig(
                seed=11,
                num_cells=3,
                standby_pool_size=pool_size,
                users_per_cell=50,
                rewarm_ns=rewarm_ns,
            )
        )

    def test_single_token_grants_first_failure_denies_second(self):
        harness = self._mini_fleet(pool_size=1)
        harness.kill_cell_primary_at(0, 60 * MS)
        harness.kill_cell_primary_at(1, 80 * MS)
        harness.run_until(120 * MS)
        assert harness.pool.promotions == 1
        assert harness.pool.exhaustions == 1
        assert _commits(harness.cells[0]) == 1
        assert _impossible(harness.cells[0]) == 0
        assert _commits(harness.cells[1]) == 0
        assert _impossible(harness.cells[1]) == 1
        assert _commits(harness.cells[2]) == 0
        # The fleet trace records both pool decisions.
        assert harness.trace.count("fleet.pool.promoted") == 1
        assert harness.trace.count("fleet.pool.exhausted") == 1
        # Its tokens are in play now: the pool can no longer be sized.
        with pytest.raises(RuntimeError, match="after 2 claim"):
            harness.pool.resize(2)

    def test_rewarmed_seat_absorbs_a_later_failure(self):
        harness = self._mini_fleet(pool_size=1, rewarm_ns=20 * MS)
        harness.kill_cell_primary_at(0, 60 * MS)
        harness.kill_cell_primary_at(1, 100 * MS)
        harness.run_until(140 * MS)
        assert harness.pool.promotions == 2
        assert harness.pool.exhaustions == 0
        assert harness.pool.rewarmed >= 1
        # Satellite-4 consistency: one RU source flip per commit, and
        # the reclaimed seat never double-assigns.
        for cell in harness.cells:
            assert _source_transitions(cell) == _commits(cell)
            assert _commits(cell) <= 1

    def test_denied_cell_recovers_only_through_operator_revival(self):
        harness = self._mini_fleet(pool_size=0)
        harness.kill_cell_primary_at(0, 60 * MS)
        harness.run_until(100 * MS)
        assert _impossible(harness.cells[0]) == 1
        assert harness.population.cell_down[0] is True
        # Operator revival: re-initialize the dead server as standby.
        cell = harness.cells[0]
        cell.phy_servers[0].phy.restart()
        cell.l2_orion.initialize_secondary(0, 0)
        harness.run_until(120 * MS)
        assert cell.l2_orion.cells[0].secondary_phy == 0

    def test_population_degrades_and_recovers_with_the_cell(self):
        harness = self._mini_fleet(pool_size=1)
        harness.kill_cell_primary_at(0, 60 * MS)
        harness.run_until(200 * MS)
        summary = harness.population.summary()
        # The promoted cell was down for well under one 10 ms epoch, so
        # every epoch after recovery serves all users again.
        assert summary["degraded_user_epochs"] <= 50
        assert summary["served_user_epochs"] > 0
        assert harness.population.cell_down[0] is False


# ----------------------------------------------------------------------
# Tracer-UE differential (satellite 1)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestTracerDifferential:
    HORIZON_NS = 300 * MS

    def test_tracer_cell_is_byte_identical_to_standalone_run(self):
        config = FleetConfig(
            seed=7,
            num_cells=4,
            standby_pool_size=1,
            users_per_cell=1_000,
            tracer_cells=1,
        )
        harness = build_fleet(config)
        assert len(harness.tracer_indices) == 1
        tracer_index = harness.tracer_indices[0]
        harness.run_until(self.HORIZON_NS)

        standalone = build_slingshot_cell(
            config.cell_config(tracer_index, tracer=True)
        )
        standalone.run_until(self.HORIZON_NS)

        fleet_cell = harness.cells[tracer_index]
        assert fleet_cell.trace.digest() == standalone.trace.digest()
        # The two encode paths, selected by structure: the island shares
        # the fleet's backend, the standalone cell has none.
        for server in fleet_cell.phy_servers:
            assert server.phy.phy_backend is harness.phy_backend
        for server in standalone.phy_servers:
            assert server.phy.phy_backend is None

        # Per-UE canonical lines, byte for byte. The tracer cell runs
        # the full default UE population; every cohort-modelled cell
        # runs none.
        assert len(fleet_cell.ues) == 3
        for other_index, other in enumerate(harness.cells):
            if other_index != tracer_index:
                assert not other.ues
        for ue_id in sorted(fleet_cell.ues):
            fleet_lines = self._ue_lines(fleet_cell.trace, ue_id)
            standalone_lines = self._ue_lines(standalone.trace, ue_id)
            assert fleet_lines, f"no per-UE events for UE {ue_id}"
            assert fleet_lines == standalone_lines

    @staticmethod
    def _ue_lines(trace, ue_id: int) -> list:
        return [
            TraceRecorder._line(e)
            for e in trace.canonical_events()
            if e.get("ue") == ue_id
        ]

    def test_tracer_sampling_is_seeded_by_the_fleet_stream(self):
        config = FleetConfig(seed=7, num_cells=8, tracer_cells=2)
        first = build_fleet(config).tracer_indices
        second = build_fleet(config).tracer_indices
        assert first == second
        assert len(first) == 2


# ----------------------------------------------------------------------
# Property-based chaos (satellite 2)
# ----------------------------------------------------------------------
CASES = generate_cases()


@pytest.mark.slow
class TestPoolProperties:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"case{c.case_id}")
    def test_generated_case_matches_greedy_token_expectation(self, case):
        harness = build_fleet(
            FleetConfig(
                seed=1_000 + case.case_id,
                num_cells=case.num_cells,
                standby_pool_size=case.pool_size,
                users_per_cell=50,
                rewarm_ns=PROP_REWARM_NS,
            )
        )
        for cell_index in range(case.num_cells):
            plan = case.plan_for(cell_index)
            if plan is not None:
                FaultInjector(harness.cells[cell_index], plan).arm()
        harness.run_until(PROP_RUN_END_NS)

        pool = harness.pool
        assert pool.promotions == case.expected_promotions
        assert pool.exhaustions == case.expected_exhaustions
        assert pool.rewarmed == 0  # Re-warm sits past the horizon.
        total_commits = sum(_commits(cell) for cell in harness.cells)
        total_impossible = sum(_impossible(cell) for cell in harness.cells)
        assert total_commits == pool.promotions
        assert total_impossible == pool.exhaustions
        for cell in harness.cells:
            assert _commits(cell) <= 1  # Never double-assigned.
            assert _source_transitions(cell) == _commits(cell)

        if case.contention:
            # Same-instant failures against one token: which cell wins
            # is tie-order dependent by design; only counts are pinned.
            assert pool.promotions == min(len(case.faults), case.pool_size)
            return
        promoted = set(case.expected_promoted)
        for cell_index, spec in case.faults:
            cell = harness.cells[cell_index]
            won = cell_index in promoted
            checker = RecoveryInvariants(
                cell.trace.canonical_events(),
                window_start_ns=0,
                window_end_ns=PROP_RUN_END_NS,
                downtime_budget_ns=None,
                expected_migrations=1 if won else 0,
                expect_failover_impossible=not won,
            )
            results = {r.name: r for r in checker.check_all()}
            label = f"case {case.case_id} cell {cell_index} (promoted={won})"
            for name in ("exactly_once_migration", "degraded_mode_visible"):
                assert results[name].passed, f"{label}: {results[name].detail}"
            if won and spec.kind == "hang":
                # Known tight-margin artifact the property pass surfaced:
                # a *hung* PHY keeps transmitting fronthaul DL, and with
                # failover_slot_margin=1 its in-flight frame for the
                # boundary slot can reach the RU alongside the new
                # primary's. Bound it to exactly that one slot.
                self._assert_at_most_boundary_conflict(cell, label)
            else:
                assert results["no_stale_frames"].passed, (
                    f"{label}: {results['no_stale_frames'].detail}"
                )

    @staticmethod
    def _assert_at_most_boundary_conflict(cell, label: str) -> None:
        conflicts = cell.trace.events("ru.conflicting_sources")
        assert len(conflicts) <= 1, f"{label}: {len(conflicts)} conflicts"
        assert cell.trace.count("ru.conflicting_sources") == len(conflicts)
        if conflicts:
            commit = cell.trace.events("mbox.migration_committed")[0]
            assert conflicts[0]["slot"] == commit["slot"], (
                f"{label}: conflict at slot {conflicts[0]['slot']} is not "
                f"the migration boundary slot {commit['slot']}"
            )

    def test_generation_is_deterministic_and_covers_contention(self):
        again = generate_cases()
        assert again == CASES
        contention = [c for c in CASES if c.contention]
        assert len(contention) == 10
        assert any(c.num_cells >= 3 for c in contention)
        assert any(c.link_dup is not None for c in CASES)
        assert any(c.pool_size == 0 for c in CASES if not c.contention)


# ----------------------------------------------------------------------
# Pool-exhaustion accounting through the re-warm reclaim, branched = cold
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestAccountingRegression:
    def test_rewarm_reclaim_accounting_branch_equals_cold(self):
        """``repro fleet`` branches every run from its seed's warm base;
        the cold run it replaced — built with its pool size, armed at
        t = 0 — stays here as the model. Jobs-invariance is
        ``tests/test_harness_contract.py``'s. Mutants: a branch that
        skips ``fleet.pool.resize`` differs (pool 0's verdict), and a
        base warmed past the first fault (60 ms) fails arming with
        "cannot schedule at t=60000000 ns"."""
        cold = build_fleet(fleet_config(seed=1, pool_size=1))
        arm_wave(cold, "second_wave")
        cold.run_until(FLEET_RUN_END_NS)
        model = judge_fleet(cold, "second_wave")
        # The reclaim shape: wave 1 takes the token (2 denials), the
        # re-warmed seat absorbs one wave-2 failure (1 more denial).
        assert model.pool["promotions"] == 2
        assert model.pool["exhaustions"] == 3
        assert model.pool["rewarmed"] == 2
        assert model.migrations_committed == 2
        assert model.failovers_impossible == 3
        assert model.source_transitions == 2
        assert model.accounting["consistent"], model.accounting["problems"]
        assert model.passed
        branched = run_fleet(build_fleet_base(1), ("second_wave", 1, 1))
        assert branched.as_dict() == model.as_dict()


# ----------------------------------------------------------------------
# Scale: per-slot work bounded by cells, not users
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFleetScale:
    def test_event_count_is_independent_of_cohort_population(self):
        def events_for(users_per_cell: int) -> int:
            harness = build_fleet(
                FleetConfig(
                    seed=3, num_cells=20, users_per_cell=users_per_cell
                )
            )
            harness.run_until(30 * MS)
            return harness.sim.events_processed

        assert events_for(10) == events_for(100_000)

    def test_hundred_cell_million_user_sweep_bills_cells_not_users(self):
        harness = build_fleet(
            FleetConfig(seed=4, num_cells=100, users_per_cell=10_000)
        )
        assert harness.population.total_users() == 1_000_000
        harness.run_until(30 * MS)
        # No per-UE machinery exists at all (cohorts are aggregate): not
        # one ``UserEquipment`` is reachable from the fleet.
        assert not any(
            isinstance(obj, UserEquipment) for obj in iter_object_graph(harness)
        )
        # The population model is one event per epoch for the whole fleet;
        # next to the per-cell PHY/fronthaul work that is a rounding error
        # in events, and both counts are exact, so this cannot flake.
        events = harness.sim.events_processed
        assert 0 < harness.population.epochs < 0.01 * events


# ----------------------------------------------------------------------
# CLI check gate + verb wiring
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFleetCheckGate:
    def test_fleet_check_quick_passes(self, capsys):
        exit_code = fleet_main(["--check", "--quick", "--jobs", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "fleet check passed" in out


class TestFleetRegistration:
    def test_fleet_is_a_cli_harness_verb(self):
        from repro.cli import _HARNESS_VERBS

        assert "fleet" in _HARNESS_VERBS
