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


def run_campaign_shard(payload: Tuple[Any, int, bool]) -> Any:
    """One chaos-campaign ``(scenario, seed)`` run, optionally replayed.

    Returns the :class:`~repro.faults.campaign.ScenarioRun` verdict —
    plain data, identical whether computed in-process or in a worker.
    """
    from repro.faults.campaign import run_scenario

    scenario, seed, replay = payload
    return run_scenario(scenario, seed, replay=replay)


def build_fork_base_shard(payload: Tuple[int, int, int, str]) -> str:
    """Build one warm fork base and save its checkpoint; returns the path.

    The base is fully determined by ``(seed, num_phy_servers, fork_ns)``
    — an unarmed probe harness driven to the fork point — so shards stay
    payload-pure and the saved checkpoints are bit-stable per key.
    """
    from pathlib import Path

    from repro.checkpoint.fork import build_fork_base

    seed, num_phy_servers, fork_ns, path = payload
    build_fork_base((seed, num_phy_servers, fork_ns)).save(Path(path))
    return path


def run_forked_scenario_shard(payload: Tuple[Any, int, str]) -> Any:
    """One forked chaos branch: load a warm checkpoint, arm, run, judge.

    The checkpoint file was captured from the same seed the payload
    names, so all worker state still derives from the shard's seed —
    the checkpoint is a verified intermediate of the deterministic
    build, not an outside input (restore re-checks the payload hash and
    the manifest walk).
    """
    from pathlib import Path

    from repro.checkpoint.fork import run_forked_scenario
    from repro.checkpoint.snapshot import Checkpoint

    scenario, seed, checkpoint_path = payload
    checkpoint = Checkpoint.load(Path(checkpoint_path))
    return run_forked_scenario(scenario, seed, checkpoint)


def run_fleet_shard(payload: Tuple[str, int, int]) -> Any:
    """One fleet-campaign ``(fault_class, pool_size, seed)`` run.

    Returns the :class:`~repro.fleet.campaign.FleetRun` verdict — plain
    data, identical whether computed in-process or in a worker.
    """
    from repro.fleet.campaign import run_fleet

    fault_class, pool_size, seed = payload
    return run_fleet(fault_class, pool_size, seed)
