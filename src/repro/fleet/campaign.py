"""Fleet campaign: availability vs standby-pool size + ``repro fleet`` CLI.

The headline fleet experiment (grounded in *Designing Reliable
Virtualized RANs*, Usubütün et al.): for each chaos fault class, fail a
fixed set of cells against standby pools of increasing size and measure
the fleet's **user-weighted availability** over the measurement window.
With M = 0 every failure is a full-window outage; each added warm seat
converts one more concurrent failure into a ~millisecond blip, and the
re-warm path lets the *same* seat absorb a second failure wave — the
availability-vs-standby curve the recorded ``BENCH_fleet.json`` pins.

Every run is a branch (:func:`~repro.harness.branch_sweep`): nothing
reads the pool before its first claim, so one warm, pool-free base per
seed serves every ``(fault class, pool size)``. ``--jobs N`` fans both
passes over a process pool; runs merge in canonical key order so the
report and every digest are bit-identical at any jobs value.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import harness
from repro.checkpoint.snapshot import Checkpoint
from repro.faults.campaign import FORK_MARGIN_NS
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ProcessFaultSpec
from repro.fleet.composer import FleetConfig, FleetHarness, build_fleet, fleet_digest
from repro.fleet.pool import REWARM_NS
from repro.sim.units import MS

# ----------------------------------------------------------------------
# Fixed fleet shape + timeline. These are identical for --quick and full
# runs (quick only trims the run matrix) so every digest is comparable
# against the same recorded baseline.
# ----------------------------------------------------------------------
FLEET_NUM_CELLS = 10
FLEET_USERS_PER_CELL = 100_000  # 10 cells x 100k = the ~1M-user metro.

FLEET_MEASURE_START_NS = 40 * MS
FLEET_FAULT_NS = 60 * MS
FLEET_WAVE2_NS = 130 * MS
FLEET_MEASURE_END_NS = 190 * MS
FLEET_RUN_END_NS = 200 * MS
#: Where each seed's warm base is captured.
FLEET_BASE_NS = FLEET_FAULT_NS - FORK_MARGIN_NS
#: Wave-internal stagger, so pool contention resolves in failure order.
FLEET_STAGGER_NS = 1 * MS

#: Cells failed in wave 1 / wave 2 (wave 2 only in ``second_wave``).
WAVE1_CELLS = (0, 1, 2)
WAVE2_CELLS = (3, 4)

POOL_SIZES = (0, 1, 2, 4)
FAULT_CLASSES = ("crash", "crash_restart", "hang", "second_wave")
QUICK_FAULT_CLASSES = ("crash", "second_wave")
FLEET_SEEDS = (1, 2)
QUICK_SEEDS = (1,)

#: crash_restart revival delay (operator replaces the dead server).
FLEET_RESTART_NS = 50 * MS


def fault_schedule(fault_class: str) -> List[Tuple[int, ProcessFaultSpec]]:
    """(cell index, process fault) pairs for one fault class."""
    if fault_class not in FAULT_CLASSES:
        raise ValueError(f"unknown fleet fault class {fault_class!r}")
    schedule: List[Tuple[int, ProcessFaultSpec]] = []
    for position, cell_index in enumerate(WAVE1_CELLS):
        at_ns = FLEET_FAULT_NS + position * FLEET_STAGGER_NS
        if fault_class == "hang":
            spec = ProcessFaultSpec(phy_id=0, kind="hang", at_ns=at_ns)
        elif fault_class == "crash_restart":
            spec = ProcessFaultSpec(
                phy_id=0,
                kind="crash_restart",
                at_ns=at_ns,
                duration_ns=FLEET_RESTART_NS,
            )
        else:  # "crash" and the first wave of "second_wave"
            spec = ProcessFaultSpec(phy_id=0, kind="crash", at_ns=at_ns)
        schedule.append((cell_index, spec))
    if fault_class == "second_wave":
        for position, cell_index in enumerate(WAVE2_CELLS):
            schedule.append(
                (
                    cell_index,
                    ProcessFaultSpec(
                        phy_id=0,
                        kind="crash",
                        at_ns=FLEET_WAVE2_NS + position * FLEET_STAGGER_NS,
                    ),
                )
            )
    return schedule


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class FleetRun:
    """One (fault class, pool size, seed) execution."""

    fault_class: str
    pool_size: int
    seed: int
    digest: str
    availability: float
    downtime_ms: List[float]
    pool: Dict[str, int]
    migrations_committed: int
    failovers_impossible: int
    source_transitions: int
    population: Dict[str, int]
    accounting: Dict[str, object]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "fault_class": self.fault_class,
            "pool_size": self.pool_size,
            "seed": self.seed,
            "digest": self.digest,
            "availability": self.availability,
            "downtime_ms": self.downtime_ms,
            "pool": self.pool,
            "migrations_committed": self.migrations_committed,
            "failovers_impossible": self.failovers_impossible,
            "source_transitions": self.source_transitions,
            "population": self.population,
            "accounting": self.accounting,
            "passed": self.passed,
        }


def _cell_recovery_ns(cell, fault_ns: int) -> Optional[int]:
    """When the cell's users saw service again: the fronthaul flip to the
    promoted standby, or (denied crash_restart) the primary's revival."""
    candidates = [
        e.time
        for category in ("mbox.migration_committed", "phy.restart")
        for e in cell.trace.events(category)
        if e.time >= fault_ns
    ]
    return min(candidates) if candidates else None


def _downtimes_ns(
    harness: FleetHarness, schedule: Sequence[Tuple[int, ProcessFaultSpec]]
) -> List[int]:
    downtimes: List[int] = []
    for cell_index, spec in schedule:
        recovery = _cell_recovery_ns(harness.cells[cell_index], spec.at_ns)
        end = FLEET_MEASURE_END_NS if recovery is None else min(
            recovery, FLEET_MEASURE_END_NS
        )
        start = max(spec.at_ns, FLEET_MEASURE_START_NS)
        downtimes.append(max(0, end - start))
    return downtimes


def fleet_config(seed: int) -> FleetConfig:
    """The campaign fleet's shape for one seed, with no standby pool (a
    run sizes its pool on its branch)."""
    return FleetConfig(
        seed=seed,
        num_cells=FLEET_NUM_CELLS,
        standby_pool_size=0,
        users_per_cell=FLEET_USERS_PER_CELL,
    )


def arm_wave(harness: FleetHarness, fault_class: str) -> None:
    """Arm one fault class's schedule, one plan per failed cell."""
    for cell_index, spec in fault_schedule(fault_class):
        FaultInjector(
            harness.cells[cell_index],
            FaultPlan(
                name=f"fleet-{fault_class}-cell{cell_index}",
                process_faults=(spec,),
            ),
        ).arm()


def build_fleet_base(seed: int) -> Checkpoint:
    """Build one seed's warm fleet — pool size 0, nothing armed — and
    checkpoint it at :data:`FLEET_BASE_NS`."""
    harness = build_fleet(fleet_config(seed))
    harness.run_until(FLEET_BASE_NS)
    return Checkpoint.capture(harness, label=f"fleet base seed={seed}")


def run_fleet(base: Checkpoint, payload: Tuple[str, int, int]) -> FleetRun:
    """Branch ``base`` into one ``(fault_class, pool_size, seed)`` run:
    size the pool, arm the wave, run to the end and judge."""
    fault_class, pool_size, _ = payload
    harness = base.restore()
    harness.pool.resize(pool_size)
    harness.config = dataclasses.replace(harness.config, standby_pool_size=pool_size)
    arm_wave(harness, fault_class)
    harness.run_until(FLEET_RUN_END_NS)
    return judge_fleet(harness, fault_class)


def judge_fleet(harness: FleetHarness, fault_class: str) -> FleetRun:
    """Judge one finished fleet run of ``fault_class``; its seed and pool
    size are the fleet's own configuration."""
    config = harness.config
    schedule = fault_schedule(fault_class)
    commits = sum(
        cell.trace.count("mbox.migration_committed") for cell in harness.cells
    )
    impossible = sum(
        cell.trace.count("orion.failover_impossible") for cell in harness.cells
    )
    transitions = sum(
        1
        for cell in harness.cells
        for e in cell.trace.events("ru.source_changed")
        if e.get("previous") is not None
    )
    pool = harness.pool
    downtimes = _downtimes_ns(harness, schedule)
    window = FLEET_MEASURE_END_NS - FLEET_MEASURE_START_NS
    users = harness.population.total_users()
    lost_user_ns = sum(downtimes) * config.users_per_cell
    availability = 1.0 - lost_user_ns / (users * window)

    # Pool-exhaustion accounting (the satellite-4 contract): every
    # injected primary failure is accounted exactly once — promoted (and
    # committed, flipping the RU source once) or denied — even when a
    # seat is re-warmed and reclaimed within the same run.
    problems: List[str] = []
    injected = len(schedule)
    if pool.promotions + pool.exhaustions != injected:
        problems.append(
            f"{pool.promotions} promotions + {pool.exhaustions} exhaustions "
            f"!= {injected} injected failures"
        )
    if commits != pool.promotions:
        problems.append(
            f"{commits} commits != {pool.promotions} pool promotions"
        )
    if impossible != pool.exhaustions:
        problems.append(
            f"{impossible} failover_impossible != {pool.exhaustions} exhaustions"
        )
    if transitions != commits:
        problems.append(f"{transitions} RU source transitions != {commits} commits")
    per_cell_commits = [
        harness.cells[cell_index].trace.count("mbox.migration_committed")
        for cell_index, _ in schedule
    ]
    if any(count > 1 for count in per_cell_commits):
        problems.append(f"a cell committed more than once: {per_cell_commits}")
    if fault_class == "second_wave" and config.standby_pool_size > 0:
        wave1_grants = min(len(WAVE1_CELLS), config.standby_pool_size)
        if pool.rewarmed < 1 or pool.promotions <= wave1_grants:
            problems.append(
                "re-warmed seat was never reclaimed by the second wave "
                f"(promotions={pool.promotions}, rewarmed={pool.rewarmed})"
            )
    accounting = {
        "injected_failures": injected,
        "consistent": not problems,
        "problems": problems,
    }

    return FleetRun(
        fault_class=fault_class,
        pool_size=config.standby_pool_size,
        seed=config.seed,
        digest=fleet_digest(harness),
        availability=round(availability, 6),
        downtime_ms=[round(d / 1e6, 3) for d in downtimes],
        pool=pool.stats_dict(),
        migrations_committed=commits,
        failovers_impossible=impossible,
        source_transitions=transitions,
        population=harness.population.summary(),
        accounting=accounting,
        passed=not problems,
    )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    runs: List[FleetRun] = field(default_factory=list)
    #: Shard-runner wall/RSS accounting; machine facts, excluded from
    #: :meth:`as_dict` (see the chaos campaign's identical convention).
    execution: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(run.passed for run in self.runs) and not self.curve_problems()

    def curve(self) -> Dict[str, Dict[int, float]]:
        """fault class -> pool size -> mean availability over seeds."""
        sums: Dict[str, Dict[int, List[float]]] = {}
        for run in self.runs:
            sums.setdefault(run.fault_class, {}).setdefault(
                run.pool_size, []
            ).append(run.availability)
        return {
            fault_class: {
                pool_size: round(sum(values) / len(values), 6)
                for pool_size, values in sorted(by_pool.items())
            }
            for fault_class, by_pool in sorted(sums.items())
        }

    def curve_problems(self) -> List[str]:
        """Availability must be non-decreasing in pool size, per class."""
        problems: List[str] = []
        for fault_class, by_pool in self.curve().items():
            values = [by_pool[size] for size in sorted(by_pool)]
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(
                    f"{fault_class}: availability not monotone in pool size: "
                    f"{values}"
                )
        return problems

    def as_dict(self) -> dict:
        return {
            "benchmark": "fleet",
            "fleet": {
                "num_cells": FLEET_NUM_CELLS,
                "users_per_cell": FLEET_USERS_PER_CELL,
                "rewarm_ms": REWARM_NS // MS,
                "wave1_cells": list(WAVE1_CELLS),
                "wave2_cells": list(WAVE2_CELLS),
            },
            "fault_classes": sorted({r.fault_class for r in self.runs}),
            "pool_sizes": sorted({r.pool_size for r in self.runs}),
            "seeds": sorted({r.seed for r in self.runs}),
            "runs_total": len(self.runs),
            "runs_failed": sum(1 for r in self.runs if not r.passed),
            "curve": {
                fault_class: {str(k): v for k, v in by_pool.items()}
                for fault_class, by_pool in self.curve().items()
            },
            "curve_problems": self.curve_problems(),
            "passed": self.passed,
            "runs": [r.as_dict() for r in self.runs],
        }

    def bench_dict(self) -> dict:
        data = self.as_dict()
        if self.execution is not None:
            data["execution"] = self.execution
        return data


def _shards(
    fault_classes: Optional[Sequence[str]],
    pool_sizes: Optional[Sequence[int]],
    seeds: Optional[Sequence[int]],
    quick: bool,
) -> harness.Shards:
    """The canonical ``(fault_class, pool_size, seed)``-keyed shard table
    (key and payload coincide); None picks the full / ``quick`` default."""
    if fault_classes is None:
        fault_classes = QUICK_FAULT_CLASSES if quick else FAULT_CLASSES
    if seeds is None:
        seeds = QUICK_SEEDS if quick else FLEET_SEEDS
    keys = [
        (fault_class, pool_size, seed)
        for fault_class in fault_classes
        for pool_size in pool_sizes or POOL_SIZES
        for seed in seeds
    ]
    return [(key, key) for key in keys]


def _report(results: Dict[tuple, FleetRun], execution: dict) -> FleetReport:
    return FleetReport(runs=list(results.values()), execution=execution)


# ----------------------------------------------------------------------
# CLI: the ``fleet`` verb's declaration (the harness does the rest)
# ----------------------------------------------------------------------
def _format_run(run: FleetRun) -> str:
    verdict = "PASS" if run.passed else "FAIL"
    suffix = ""
    if not run.passed:
        suffix = "  !" + "; ".join(run.accounting.get("problems", []))
    return (
        f"{run.fault_class:<14} pool={run.pool_size:<2} seed={run.seed:<3} "
        f"{verdict:<5} avail={run.availability:.6f}  "
        f"promoted={run.pool['promotions']} denied={run.pool['exhaustions']} "
        f"rewarmed={run.pool['rewarmed']}{suffix}"
    )


def _arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--class",
        action="append",
        dest="fault_classes",
        metavar="NAME",
        choices=FAULT_CLASSES,
        help="run only this fault class (repeatable; default: all)",
    )
    parser.add_argument(
        "--pool-sizes",
        type=harness.at_least(int, 0),
        nargs="+",
        default=None,
        help=f"standby pool sizes to sweep (default: {list(POOL_SIZES)})",
    )
    parser.add_argument(
        "--seeds", type=harness.at_least(int, 0), nargs="+", default=None,
        help="fleet seeds (default: 1 2; --quick: 1)",
    )


def _summary(report: dict) -> str:
    return f"{report['runs_total']} runs, {report['runs_failed']} failed" + "".join(
        f"\n  curve problem: {problem}" for problem in report["curve_problems"]
    )


FLEET = harness.Verb(
    name="fleet",
    description="Metro-scale fleet campaign: availability vs pooled "
    "standby count across the chaos fault classes.",
    exact_fields=("digest", "availability"),
    arguments=_arguments,
    entries=harness.runs_by("fault_class", "pool_size", "seed"),
    summary=_summary,
    shards=lambda args: _shards(
        args.fault_classes, args.pool_sizes, args.seeds, args.quick
    ),
    # One warm base per seed, one branch per (fault class, pool size).
    execute=functools.partial(
        harness.branch_sweep,
        base_key=lambda payload: payload[2],
        build_base=build_fleet_base,
        run_branch=run_fleet,
    ),
    format_run=_format_run,
    report=lambda results, execution: _report(results, execution).bench_dict(),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main(FLEET, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
