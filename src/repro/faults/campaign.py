"""Chaos campaign driver + ``python -m repro chaos`` CLI.

Runs a scenario matrix x seeds, checks the recovery invariants on each
run, optionally replays every (scenario, seed) pair to prove the trace
digest is seed-stable, and emits a JSON report (``--out FILE``;
``benchmarks/BENCH_chaos.json`` is the recorded baseline ``--check``
compares against — see :mod:`repro.harness`).

``--jobs N`` fans the independent ``(scenario, seed)`` shards out to a
process pool (:mod:`repro.parallel`). Every shard rebuilds its cell
from its own seed, results merge in canonical ``(scenario, seed)``
order, and per-run output streams as shards complete (ordered flush) —
so the report, the printed lines, and every canonical-trace digest are
bit-identical to the serial run. Only the ``execution`` accounting
block (wall times, peak RSS, measured speedup) differs between jobs
values, and it is kept out of :meth:`CampaignReport.as_dict` so
determinism stays mechanically checkable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import harness
from repro.apps.dispatch import UplinkTransmit
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.faults.injector import FaultInjector
from repro.faults.invariants import PROBE_RX, RecoveryInvariants
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import (
    ChaosScenario,
    MEASURE_END_NS,
    MEASURE_START_NS,
    PROBE_START_NS,
    RUN_END_NS,
    scenario_by_name,
    standard_scenarios,
)
from repro.parallel.workers import run_campaign_shard
from repro.transport.packet import FlowDirection, Packet
from repro.transport.udp import UdpSender, UdpSink

#: Probe flow parameters: ~8 Mbps of 1200 B datagrams is one packet per
#: ~1.2 ms — fine-grained enough to resolve sub-10 ms outages, light
#: enough that the cell never saturates.
PROBE_BITRATE_BPS = 8e6
PROBE_PACKET_BYTES = 1200
PROBE_FLOW_ID = "chaos-probe"
PROBE_BEARER_ID = 1


@dataclass
class ScenarioRun:
    """One (scenario, seed) execution's verdicts and evidence."""

    scenario: str
    seed: int
    digest: str
    invariants: List[dict]
    passed: bool
    max_probe_gap_ms: Optional[float]
    migrations_committed: int
    detection: Dict[str, int]
    link_faults: List[dict]
    replay_digest_matched: Optional[bool] = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "digest": self.digest,
            "passed": self.passed,
            "max_probe_gap_ms": self.max_probe_gap_ms,
            "migrations_committed": self.migrations_committed,
            "detection": self.detection,
            "invariants": self.invariants,
            "link_faults": self.link_faults,
            "replay_digest_matched": self.replay_digest_matched,
        }


@dataclass
class CampaignReport:
    runs: List[ScenarioRun] = field(default_factory=list)
    #: Wall-clock/RSS accounting from the shard runner (jobs, per-shard
    #: wall time, measured speedup). Machine facts, not behaviour: kept
    #: out of :meth:`as_dict` so serial-vs-parallel comparisons stay
    #: bit-exact; :meth:`bench_dict` includes it for the BENCH json.
    execution: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(
            run.passed and run.replay_digest_matched is not False
            for run in self.runs
        )

    def as_dict(self) -> dict:
        return {
            "benchmark": "chaos",
            "scenarios": sorted({r.scenario for r in self.runs}),
            "seeds": sorted({r.seed for r in self.runs}),
            "runs_total": len(self.runs),
            "runs_failed": sum(1 for r in self.runs if not r.passed),
            "replays_mismatched": sum(
                1 for r in self.runs if r.replay_digest_matched is False
            ),
            "passed": self.passed,
            "runs": [r.as_dict() for r in self.runs],
        }

    def bench_dict(self) -> dict:
        """The persisted report: deterministic verdicts + execution facts."""
        data = self.as_dict()
        if self.execution is not None:
            data["execution"] = self.execution
        return data


class ProbeTap:
    """Server-side probe sink: trace ``PROBE_RX``, fold the delivery into
    ``monitor`` when there is one (a soak's incremental gap tracker),
    then deliver.

    A plain callable class (not a closure) so a probed cell's whole
    object graph stays picklable for checkpoint/restore.
    """

    __slots__ = ("cell", "sink", "monitor")

    def __init__(self, cell, sink: UdpSink, monitor=None) -> None:
        self.cell = cell
        self.sink = sink
        self.monitor = monitor

    def __call__(self, packet: Packet) -> None:
        now = self.cell.sim.now
        self.cell.trace.record(now, PROBE_RX, seq=packet.seq)
        if self.monitor is not None:
            self.monitor.on_delivery(now)
        self.sink.on_packet(packet)


@dataclass
class ProbeHarness:
    """One probed cell plus its probe endpoints — the checkpoint root.

    Everything a paused scenario execution needs to resume lives here:
    the cell (simulator, trace, RNG registry, every component), the
    armed injector (None until a plan is armed — warm fork bases are
    built unarmed), and the probe sender/sink. ``probe_started`` makes
    :func:`drive_to` idempotent across checkpoint/restore boundaries.
    """

    cell: Any
    injector: Optional[FaultInjector]
    sender: UdpSender
    sink: UdpSink
    seed: int
    probe_started: bool = False


def build_probe_harness(
    seed: int,
    num_phy_servers: int = 2,
    plan: Optional[FaultPlan] = None,
    monitor=None,
) -> ProbeHarness:
    """Build one probed cell; arm ``plan`` against it when given.

    With ``plan=None`` the harness is a scenario-independent warm base:
    :func:`arm_plan` attaches a fault plan later (scenario forking), and
    because every fault draws from its own named ``faults.*`` stream,
    late arming consumes exactly the draws an at-build arm would have.
    ``monitor`` is handed every probe delivery (see :class:`ProbeTap`).
    """
    config = CellConfig(
        seed=seed,
        num_phy_servers=num_phy_servers,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )
    cell = build_slingshot_cell(config)
    injector = None
    if plan is not None:
        injector = FaultInjector(cell, plan)
        injector.arm()

    # App-level probe flow (uplink UDP): the downtime metric is the gap
    # between deliveries at the server-side sink, recorded as trace
    # events so the invariant checker sees them in canonical order.
    sink = UdpSink(cell.sim, PROBE_FLOW_ID)
    ue = cell.ue(1)
    sender = UdpSender(
        cell.sim,
        PROBE_FLOW_ID,
        ue.ue_id,
        PROBE_BEARER_ID,
        FlowDirection.UPLINK,
        transmit=UplinkTransmit(ue, PROBE_BEARER_ID),
        bitrate_bps=PROBE_BITRATE_BPS,
        packet_bytes=PROBE_PACKET_BYTES,
    )
    cell.server.register_flow(PROBE_FLOW_ID, ProbeTap(cell, sink, monitor))
    return ProbeHarness(
        cell=cell, injector=injector, sender=sender, sink=sink, seed=seed
    )


def arm_plan(harness: ProbeHarness, plan: FaultPlan) -> FaultInjector:
    """Arm a fault plan on a (restored) harness — the fork branch point.

    Every transition the plan schedules must still be in the future
    (the injector schedules with ``sim.at``, which refuses past times).
    """
    if harness.injector is not None:
        raise RuntimeError("harness already has an armed plan")
    harness.injector = FaultInjector(harness.cell, plan)
    harness.injector.arm()
    return harness.injector


def drive_to(harness: ProbeHarness, until_ns: int) -> None:
    """Advance a harness to an absolute time, starting the probe on the
    way past ``PROBE_START_NS``. Splitting a run into any sequence of
    ``drive_to`` calls is behaviour-identical to one call — which is
    what lets checkpoints pause an execution anywhere."""
    cell = harness.cell
    if not harness.probe_started:
        if until_ns < PROBE_START_NS:
            cell.run_until(until_ns)
            return
        cell.run_until(PROBE_START_NS)
        harness.sender.start()
        harness.probe_started = True
    cell.run_until(until_ns)


def _execute(scenario: ChaosScenario, seed: int):
    """Build, arm, probe, and run one scenario; returns (cell, injector)."""
    harness = build_probe_harness(
        seed, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
    )
    drive_to(harness, RUN_END_NS)
    return harness.cell, harness.injector


def judge_execution(
    scenario: ChaosScenario, seed: int, cell, injector: FaultInjector
) -> ScenarioRun:
    """Judge one finished execution against the scenario's invariants.

    Shared by the normal campaign path and the checkpoint/fork paths —
    a restored or forked execution must produce byte-identical verdicts,
    so there is exactly one judging code path.
    """
    events = cell.trace.canonical_events()
    digest = cell.trace.digest()
    checker = RecoveryInvariants(
        events,
        window_start_ns=MEASURE_START_NS,
        window_end_ns=MEASURE_END_NS,
        downtime_budget_ns=scenario.downtime_budget_ns,
        expected_migrations=scenario.expected_migrations,
        expect_failover_impossible=scenario.expect_failover_impossible(),
    )
    results = checker.check_all()
    gap = checker.max_probe_gap_ns()
    run = ScenarioRun(
        scenario=scenario.name,
        seed=seed,
        digest=digest,
        invariants=[r.as_dict() for r in results],
        passed=all(r.passed for r in results),
        max_probe_gap_ms=None if gap is None else round(gap / 1e6, 3),
        migrations_committed=cell.trace.count("mbox.migration_committed"),
        detection={
            "switch_detector": cell.trace.count("mbox.failure_detected"),
            "response_watchdog": cell.trace.count(
                "orion.response_watchdog_fired"
            ),
            "failover_impossible": cell.trace.count("orion.failover_impossible"),
        },
        link_faults=injector.link_fault_stats(),
    )
    return run


def run_scenario(
    scenario: ChaosScenario, seed: int, replay: bool = False
) -> ScenarioRun:
    """Execute one (scenario, seed) pair and judge it."""
    cell, injector = _execute(scenario, seed)
    run = judge_execution(scenario, seed, cell, injector)
    if replay:
        replay_cell, _ = _execute(scenario, seed)
        run.replay_digest_matched = replay_cell.trace.digest() == run.digest
    return run


def _shards(
    scenarios: Sequence[ChaosScenario], seeds: Sequence[int], replay: bool
) -> harness.Shards:
    """The canonical ``(scenario name, seed)``-keyed shard table."""
    return [
        ((scenario.name, seed), (scenario, seed, replay))
        for scenario in scenarios
        for seed in seeds
    ]


def _report(results: Dict[tuple, ScenarioRun], execution: dict) -> CampaignReport:
    return CampaignReport(runs=list(results.values()), execution=execution)


def run_campaign(
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    seeds: Sequence[int] = (1, 2, 3),
    replay: bool = False,
    progress=None,
    jobs: int = 1,
) -> CampaignReport:
    """Run the (scenario x seed) matrix, optionally on ``jobs`` workers.

    Results merge — and ``progress`` streams — in canonical shard order
    at every jobs value, so the returned report is identical to a serial
    run.
    """
    selected = standard_scenarios() if scenarios is None else scenarios
    return _report(
        *harness.fan_out(
            run_campaign_shard, _shards(selected, seeds, replay), jobs, progress
        )
    )


# ----------------------------------------------------------------------
# CLI: the ``chaos`` verb's declaration (the harness does the rest)
# ----------------------------------------------------------------------
def _format_run(run: ScenarioRun) -> str:
    verdict = "PASS" if run.passed else "FAIL"
    if run.replay_digest_matched is False:
        verdict = "FAIL(replay)"
    gap = "-" if run.max_probe_gap_ms is None else f"{run.max_probe_gap_ms:8.2f}"
    failed = [r["name"] for r in run.invariants if not r["passed"]]
    suffix = f"  !{','.join(failed)}" if failed else ""
    return (
        f"{run.scenario:<18} seed={run.seed:<3} {verdict:<12} "
        f"gap_ms={gap}  migrations={run.migrations_committed}{suffix}"
    )


def recorded_digests() -> Dict[Tuple[str, int], str]:
    """``(scenario, seed)`` -> digest recorded (cold, unprobed) in
    ``BENCH_chaos.json``; empty when that file cannot be loaded."""
    try:
        runs = harness.load_baseline("chaos")["runs"]
    except harness.BaselineError:
        return {}
    return {(run["scenario"], run["seed"]): run["digest"] for run in runs}


def scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """``--scenario`` / ``--seeds``, shared with ``repro telemetry``."""
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--seeds",
        type=harness.at_least(int, 0),
        nargs="+",
        default=None,
        help="scenario seeds (default: 1 2 3; --quick: 1)",
    )


def selected_matrix(
    args: argparse.Namespace, quick_scenarios: Optional[Sequence[str]] = None
) -> Tuple[List[ChaosScenario], List[int]]:
    """The (scenarios, seeds) a parsed ``--scenario/--seeds/--quick`` names."""
    catalog = scenario_by_name()
    names = args.scenarios or (
        quick_scenarios if args.quick and quick_scenarios else list(catalog)
    )
    seeds = args.seeds if args.seeds is not None else ([1] if args.quick else [1, 2, 3])
    return harness.select(catalog, names, "scenario"), seeds


def _arguments(parser: argparse.ArgumentParser) -> None:
    scenario_arguments(parser)
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the digest-stability replay of each run (faster)",
    )


def _cli_shards(args: argparse.Namespace) -> harness.Shards:
    scenarios, seeds = selected_matrix(args)
    return _shards(scenarios, seeds, replay=not (args.no_replay or args.quick))


def _summary(report: dict) -> str:
    return (
        f"{report['runs_total']} runs, {report['runs_failed']} failed, "
        f"{report['replays_mismatched']} replay mismatches"
    )


CHAOS = harness.Verb(
    name="chaos",
    description="Deterministic fault-injection campaign with "
    "recovery-invariant checking.",
    exact_fields=("digest",),
    arguments=_arguments,
    entries=harness.runs_by("scenario", "seed"),
    summary=_summary,
    shards=_cli_shards,
    worker=run_campaign_shard,
    format_run=_format_run,
    report=lambda results, execution: _report(results, execution).bench_dict(),
    catalog=lambda: {
        name: scenario.description for name, scenario in scenario_by_name().items()
    },
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main(CHAOS, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
