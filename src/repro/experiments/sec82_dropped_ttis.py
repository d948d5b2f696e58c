"""§8.2 — TTIs dropped during failover vs VM migration.

Paper result: Slingshot drops at most three TTIs on a failover (failure
near the end of slot N → detection near the end of N+1 → Orion reacts
within tens of microseconds → secondary serves from ~N+2/N+3), two
orders of magnitude fewer than the hundreds a VM-migration blackout
costs; planned migrations drop zero.

The failover and the planned migration are each run at all 56 phases
of §5.2's sweep (:func:`~repro.experiments.sec52_detector.phase_branches`):
one warm cell, forked into a primary kill and into ``planned_migration(0)``
at every tick-period offset that covers a slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.baselines.vm_migration import PrecopyMigrationModel, TransportKind
from repro.experiments.sec52_detector import RECOVERY_NS, phase_branches


@dataclass
class DroppedTtiResult:
    #: Dropped (no-control) TTIs per failover, one per kill phase.
    failover_dropped: List[int]
    #: Dropped TTIs per planned migration, one per phase.
    planned_dropped: List[int]
    #: Migrations committed per planned-migration branch (one is right).
    planned_commits: List[int]
    #: Equivalent dropped TTIs for the median VM-migration pause.
    vm_migration_dropped: int
    slot_us: float

    def max_failover_dropped(self) -> int:
        return max(self.failover_dropped) if self.failover_dropped else 0


def run(seed: int = 0) -> DroppedTtiResult:
    """Count RU control gaps across a failover and a planned migration
    at every phase, plus the VM-migration equivalent."""
    cell, warm, instants = phase_branches(seed)
    before = cell.ru.stats.slots_without_control
    failover, planned, commits = [], [], []
    for at in instants:
        branch = warm.restore()
        branch.kill_phy_at(0, at)
        branch.sim.run_until(at + RECOVERY_NS)
        failover.append(branch.ru.stats.slots_without_control - before)

        branch = warm.restore()
        branch.sim.at(at, branch.planned_migration, 0)
        branch.sim.run_until(at + RECOVERY_NS)
        planned.append(branch.ru.stats.slots_without_control - before)
        commits.append(branch.trace.count("mbox.migration_committed"))
    # VM migration: the median pause time expressed in TTIs.
    slot_us = cell.slot_ns / 1e3
    model = PrecopyMigrationModel(rng=np.random.default_rng(seed))
    runs = model.run_campaign(TransportKind.RDMA, 20)
    median_pause_us = float(np.median([r.pause_time_ns for r in runs])) / 1e3
    return DroppedTtiResult(
        failover_dropped=failover,
        planned_dropped=planned,
        planned_commits=commits,
        vm_migration_dropped=int(median_pause_us / slot_us),
        slot_us=slot_us,
    )


def summarize(result: DroppedTtiResult) -> str:
    worst = result.max_failover_dropped()
    at_worst = [k for k, n in enumerate(result.failover_dropped) if n == worst]
    phases = len(result.failover_dropped)
    return "\n".join(
        [
            "§8.2 — dropped TTIs per resilience event",
            f"  Slingshot failover: max {worst} TTIs over {phases} kill phases, "
            f"at {len(at_worst)} of them ({at_worst[0]}-{at_worst[-1]}) "
            f"(paper: <= 3)",
            f"  Slingshot planned migration: max {max(result.planned_dropped)} "
            f"TTIs over {phases} phases, commits per phase "
            f"{sorted(set(result.planned_commits))} (paper: 0)",
            f"  VM migration (median pause): ~{result.vm_migration_dropped} TTIs "
            f"(paper: hundreds)",
        ]
    )
