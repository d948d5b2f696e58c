"""The cold chaos runner, kept as the model of the forked sweep (moved from
``repro/faults/campaign.py``, where it was ``_execute`` / ``run_scenario``;
nothing in ``src/`` uses it).

``repro chaos`` branches every ``(scenario, seed)`` from a warm base
checkpointed just before the plan's earliest fault. This is the run it
replaced: build the probed cell with the plan armed at t = 0, drive to
``RUN_END_NS``, judge. ``tests/test_checkpoint.py::TestForkedEqualsCold``
requires the whole :class:`~repro.faults.campaign.ScenarioRun` record of
both to be equal — digest, verdicts, timeline, every counter, detection
latencies.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.faults.campaign import (
    ScenarioRun,
    build_probe_harness,
    drive_to,
    judge_execution,
)
from repro.faults.scenarios import RUN_END_NS, ChaosScenario, scenario_by_name
from repro.harness import BaselineError, bench_path, load_baseline


def run_cold(scenario: ChaosScenario, seed: int) -> ScenarioRun:
    """Build with the plan armed, probe, run one scenario from t = 0, and
    judge it."""
    probed = build_probe_harness(
        seed, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
    )
    drive_to(probed, RUN_END_NS)
    return judge_execution(scenario, seed, probed)


def run_cold_shard(payload: Tuple[str, int]) -> ScenarioRun:
    """``run_cold`` as a picklable shard worker over ``(name, seed)``."""
    name, seed = payload
    return run_cold(scenario_by_name()[name], seed)


def recorded_digests() -> Dict[Tuple[str, int], str]:
    """``(scenario, seed)`` -> digest recorded in ``BENCH_chaos.json``;
    empty when that file cannot be loaded."""
    try:
        runs = load_baseline("chaos", bench_path("chaos"))["runs"]
    except BaselineError:
        return {}
    return {(run["scenario"], run["seed"]): run["digest"] for run in runs}
