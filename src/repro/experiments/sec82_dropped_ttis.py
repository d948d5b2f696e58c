"""§8.2 — TTIs dropped during failover vs VM migration.

Paper result: Slingshot drops at most three TTIs on a failover (failure
near the end of slot N → detection near the end of N+1 → Orion reacts
within tens of microseconds → secondary serves from ~N+2/N+3), two
orders of magnitude fewer than the hundreds a VM-migration blackout
costs; planned migrations drop zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.baselines.vm_migration import PrecopyMigrationModel, TransportKind
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.experiments.sweep import sweep_trials
from repro.sim.units import US, run_for_ns, seconds


@dataclass
class DroppedTtiResult:
    #: Dropped (no-control) TTIs per failover trial.
    failover_dropped: List[int]
    #: Dropped TTIs across a planned migration.
    planned_dropped: int
    #: Equivalent dropped TTIs for the median VM-migration pause.
    vm_migration_dropped: int
    slot_us: float

    def max_failover_dropped(self) -> int:
        return max(self.failover_dropped) if self.failover_dropped else 0


def _failover_trial_shard(payload: Tuple[int, int, int]) -> int:
    """One failover trial: dropped-TTI count for a kill at the given
    slot-phase offset. Shard worker: state rebuilds from the payload's
    seed; the kill offset was drawn by the caller in serial order, so
    serial and ``--jobs`` N agree (pinned by ``tests/test_parallel.py``)."""
    seed, trial, offset_us = payload
    config = CellConfig(
        seed=seed + trial,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )
    cell = build_slingshot_cell(config)
    run_for_ns(cell, seconds(0.5))
    before = cell.ru.stats.slots_without_control
    # Kill at a random phase within a slot (worst case is near the
    # start of a slot, wasting most of the detector timeout).
    kill_at = cell.sim.now + offset_us * US
    cell.kill_phy_at(0, kill_at)
    run_for_ns(cell, seconds(0.4))
    return cell.ru.stats.slots_without_control - before


def run(trials: int = 6, seed: int = 0, jobs: int = 1) -> DroppedTtiResult:
    """Count RU control gaps across failovers, a planned migration, and
    the VM-migration equivalent.

    ``jobs > 1`` shards the failover trials over worker processes;
    per-trial kill offsets are pre-drawn in serial order so the counts
    are identical to the serial loop.
    """
    rng = np.random.default_rng(seed)
    slot_us = 500.0
    payloads = [
        (seed, trial, int(rng.integers(0, 500))) for trial in range(trials)
    ]
    failover_dropped, _outcome = sweep_trials(
        _failover_trial_shard, payloads, jobs=jobs, label="sec82"
    )
    # Planned migration drops nothing.
    config = CellConfig(
        seed=seed + 500,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )
    cell = build_slingshot_cell(config)
    run_for_ns(cell, seconds(0.5))
    before = cell.ru.stats.slots_without_control
    cell.planned_migration(0)
    run_for_ns(cell, seconds(0.4))
    planned_dropped = cell.ru.stats.slots_without_control - before
    # VM migration: the median pause time expressed in TTIs.
    model = PrecopyMigrationModel(rng=np.random.default_rng(seed))
    runs = model.run_campaign(TransportKind.RDMA, 20)
    median_pause_us = float(np.median([r.pause_time_ns for r in runs])) / 1e3
    return DroppedTtiResult(
        failover_dropped=failover_dropped,
        planned_dropped=planned_dropped,
        vm_migration_dropped=int(median_pause_us / slot_us),
        slot_us=slot_us,
    )


def summarize(result: DroppedTtiResult) -> str:
    return "\n".join(
        [
            "§8.2 — dropped TTIs per resilience event",
            f"  Slingshot failover: max {result.max_failover_dropped()} TTIs "
            f"across trials {result.failover_dropped} (paper: <= 3)",
            f"  Slingshot planned migration: {result.planned_dropped} TTIs "
            f"(paper: 0)",
            f"  VM migration (median pause): ~{result.vm_migration_dropped} TTIs "
            f"(paper: hundreds)",
        ]
    )
