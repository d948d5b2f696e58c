"""Sanctioned shard-worker entrypoints.

Every function here is a top-level, picklable worker for
:func:`repro.parallel.pool.run_shards`. Workers rebuild **all** state
from their payload (ultimately from the shard's seed): they hold no
module-level state, and any randomness they trigger flows through the
shard's own seed-derived :class:`~repro.sim.rng.RngRegistry` streams.
Every campaign pins the consequence — "bit-identical to serial at any
--jobs" — dynamically (``tests/test_parallel.py``,
``tests/test_harness_contract.py``, the three ``--check`` gates), which
is what makes the guarantee checked rather than aspirational.

Imports of the heavyweight driver modules happen inside the workers:
the drivers import this module's pool machinery, and lazy imports keep
the dependency one-way at import time.
"""

from __future__ import annotations

from typing import Any, Tuple


def build_fork_base_shard(key: Tuple[int, int, int]) -> Any:
    """Build one warm chaos fork base; returns its in-memory checkpoint.

    The base is fully determined by ``(seed, num_phy_servers, fork_ns)``
    — an unarmed probe harness driven to the fork point — so the
    checkpoint is bit-stable per key.
    """
    from repro.faults.campaign import build_fork_base

    return build_fork_base(key)


def run_branch_shard(payload: Tuple[Any, int, Any, bool]) -> Any:
    """One chaos ``(scenario, seed)`` run: branch its warm base, arm the
    plan, run, judge — and optionally branch again to replay.

    The base was captured from the seed the payload names, so all worker
    state still derives from the shard's seed: the checkpoint is a
    verified intermediate of the deterministic build, not an outside
    input (restore checks the payload hash, the one Simulator, its clock
    and event count). Returns the
    :class:`~repro.faults.campaign.ScenarioRun` — plain data, identical
    whether computed in-process or in a worker.
    """
    from repro.faults.campaign import run_branch

    scenario, seed, base, replay = payload
    return run_branch(scenario, seed, base, replay=replay)


def run_fleet_shard(payload: Tuple[str, int, int]) -> Any:
    """One fleet-campaign ``(fault_class, pool_size, seed)`` run.

    Returns the :class:`~repro.fleet.campaign.FleetRun` verdict — plain
    data, identical whether computed in-process or in a worker.
    """
    from repro.fleet.campaign import run_fleet

    fault_class, pool_size, seed = payload
    return run_fleet(fault_class, pool_size, seed)
