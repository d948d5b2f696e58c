"""Telemetry CLI: ``python -m repro telemetry``.

Runs instrumented chaos scenarios — a fresh
:class:`~repro.telemetry.metrics.MetricsRegistry` enabled around each
cell build, plus an :class:`~repro.telemetry.probe.EventCountProbe` on
the engine — and reports, per ``(scenario, seed)`` run:

* the canonical trace **digest**, compared against the recorded chaos
  baseline (``benchmarks/BENCH_chaos.json``): the run with telemetry ON
  must produce the digest recorded with telemetry OFF, which is the
  digest-neutrality contract made mechanical;
* the reconstructed :class:`~repro.telemetry.timeline.FailoverTimeline`
  (failure → detect → notify → commit → first good delivery, plus the
  probe-gap downtime that exactly matches the chaos invariant bound);
* the full **metrics snapshot** (counters, histograms, spans).

Usage::

    python -m repro telemetry                   # full 13x3 matrix
    python -m repro telemetry --out benchmarks/BENCH_telemetry.json   # re-record
    python -m repro telemetry --quick           # 3-scenario x seed-1 smoke
    python -m repro telemetry --check --quick   # the tier-1 gate
    python -m repro telemetry --scenario crash --seeds 1 2 --jobs 2
    python -m repro telemetry --format csv      # timeline table

Flags, baseline handling and exit codes are the shared harness's
(:mod:`repro.harness`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence

from repro import harness
from repro.faults.campaign import (
    CHAOS,
    recorded_digests,
    run_scenario,
    scenario_arguments,
    selected_matrix,
)
from repro.faults.scenarios import scenario_by_name
from repro.parallel.workers import run_telemetry_shard
from repro.telemetry.metrics import MetricsRegistry, enabled, merge_snapshots
from repro.telemetry.probe import EventCountProbe

#: Reduced matrix for ``--quick``: one process-fault failover, one
#: command-loss failover, one degraded-mode scenario — each exercising a
#: different timeline shape — at a single seed.
QUICK_SCENARIOS = ("cmd_drop", "crash", "no_secondary")

#: Timeline columns for the CSV export (and the text row summary).
CSV_COLUMNS = (
    "scenario",
    "seed",
    "fault_ns",
    "detected_ns",
    "notified_ns",
    "committed_ns",
    "first_good_ns",
    "detect_latency_ns",
    "notify_latency_ns",
    "commit_latency_ns",
    "resume_latency_ns",
    "downtime_ns",
)


def run_instrumented_scenario(
    scenario_name: str, seed: int, recorded_digest: Optional[str] = None
) -> Dict[str, Any]:
    """One fully instrumented chaos run; returns a JSON-ready dict.

    The registry is enabled *before* the cell is built (component
    construction is when instrumentation handles are captured) and the
    engine probe wraps the whole run. ``digest_neutral`` says whether
    the run reproduced ``recorded_digest`` — the digest recorded with
    telemetry off (None when there is no recording to compare with).
    """
    scenario = scenario_by_name()[scenario_name]
    registry = MetricsRegistry()
    with enabled(registry), EventCountProbe():
        run = run_scenario(scenario, seed, replay=False)
    return {
        "scenario": scenario_name,
        "seed": seed,
        "digest": run.digest,
        "invariants_passed": run.passed,
        "timeline": run.timeline,
        "metrics": registry.snapshot(),
        "digest_neutral": (
            None if recorded_digest is None else run.digest == recorded_digest
        ),
    }


def _shards(scenario_names: Sequence[str], seeds: Sequence[int]) -> harness.Shards:
    """Canonical ``(scenario, seed)`` shards, each carrying the digest
    ``BENCH_chaos.json`` recorded for it with telemetry off."""
    reference = recorded_digests()
    return [
        ((name, seed), (name, seed, reference.get((name, seed))))
        for name in scenario_names
        for seed in seeds
    ]


def _report(results: Dict[tuple, Dict[str, Any]], execution: dict) -> Dict[str, Any]:
    """Per-shard snapshots come back independent and merge here in
    canonical key order, so the merged snapshot is identical at any
    ``jobs`` value."""
    runs = list(results.values())
    return {
        "benchmark": "telemetry",
        "scenarios": sorted({run["scenario"] for run in runs}),
        "seeds": sorted({run["seed"] for run in runs}),
        "runs_total": len(runs),
        "neutrality_failures": sum(
            1 for run in runs if run["digest_neutral"] is False
        ),
        "passed": all(run["digest_neutral"] is not False for run in runs),
        "runs": runs,
        "merged_metrics": merge_snapshots([run["metrics"] for run in runs]),
        "execution": execution,
    }


def run_telemetry(
    scenario_names: Sequence[str],
    seeds: Sequence[int],
    jobs: int = 1,
    progress=None,
) -> Dict[str, Any]:
    """Run the instrumented matrix and assemble the telemetry report."""
    return _report(
        *harness.fan_out(
            run_telemetry_shard, _shards(scenario_names, seeds), jobs, progress
        )
    )


# ----------------------------------------------------------------------
# CLI: the ``telemetry`` verb's declaration (the harness does the rest)
# ----------------------------------------------------------------------
def _format_run(run: Dict[str, Any]) -> str:
    timeline = run.get("timeline") or {}

    def us(key: str) -> str:
        value = timeline.get(key)
        return "-" if value is None else f"{value / 1e3:.1f}"

    downtime = timeline.get("downtime_ns")
    downtime_ms = "-" if downtime is None else f"{downtime / 1e6:.2f}"
    neutral = {True: "neutral", False: "DIGEST-CHANGED", None: "no-ref"}[
        run["digest_neutral"]
    ]
    return (
        f"{run['scenario']:<18} seed={run['seed']:<3} {neutral:<14} "
        f"downtime_ms={downtime_ms:>7} detect_us={us('detect_latency_ns'):>7} "
        f"commit_us={us('commit_latency_ns'):>7} "
        f"resume_us={us('resume_latency_ns'):>7}"
    )


def _format_csv(report: Dict[str, Any]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for run in report["runs"]:
        timeline = run.get("timeline") or {}
        row = {**timeline, "scenario": run["scenario"], "seed": run["seed"]}
        lines.append(
            ",".join(
                "" if row.get(column) is None else str(row[column])
                for column in CSV_COLUMNS
            )
        )
    return "\n".join(lines)


def _cli_shards(args: argparse.Namespace) -> harness.Shards:
    scenarios, seeds = selected_matrix(args, QUICK_SCENARIOS)
    return _shards([scenario.name for scenario in scenarios], seeds)


TELEMETRY = harness.Verb(
    name="telemetry",
    description="Instrumented failover runs: metrics, timelines, and "
    "the digest-neutrality gate.",
    exact_fields=("digest", "invariants_passed", "timeline", "metrics"),
    arguments=scenario_arguments,
    entries=harness.runs_by("scenario", "seed"),
    summary=lambda report: (
        f"{report['runs_total']} runs, "
        f"{report['neutrality_failures']} digest-neutrality failures"
    ),
    shards=_cli_shards,
    worker=run_telemetry_shard,
    format_run=_format_run,
    report=_report,
    catalog=CHAOS.catalog,
    formats={"csv": _format_csv},
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main(TELEMETRY, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
