"""Chaos campaign driver + ``python -m repro chaos`` CLI.

Runs a scenario matrix x seeds, checks the recovery invariants on each
run, optionally replays every (scenario, seed) pair to prove the trace
digest is seed-stable, and emits a JSON report (``--out FILE``;
``benchmarks/BENCH_chaos.json`` is the recorded baseline ``--check``
compares against — see :mod:`repro.harness`).

Each run is one failover record (:class:`ScenarioRun`): the digest and
verdicts, the :class:`~repro.telemetry.timeline.FailoverTimeline`, every
layer's non-zero :func:`~repro.telemetry.collect.collect` counter, and
the detector's detection latencies — read once the run has ended, which
writes no trace record and draws no randomness.

**Every run is a branch.** A scenario spends its first ~540 ms of
1,050 ms identically (build the cell, attach the UE, start the probe,
idle until the fault), so the sweep builds one warm, unarmed
:class:`ProbeHarness` per :func:`fork_key` — ``(seed, num_phy_servers,
fork_ns)``, :data:`FORK_MARGIN_NS` before the plan's earliest fault — and
checkpoints it in memory; each ``(scenario, seed)`` then restores its
base, arms the plan and runs the remainder (a replay branches the same
base again). Most scenarios share one base; ``clock_drift`` needs an
earlier one (its clock fault leads the crash by 100 ms) and
``no_secondary`` runs a one-PHY cell. The branch equals a run armed at
t = 0 record for record: link impairments touch nothing, draw nothing
and count nothing before their windows open (:meth:`Link.send
<repro.net.link.Link.send>`), transitions are scheduled at absolute
times, and registry streams are seeded by name alone. The cold run
survives as the model of that differential test
(``tests/chaos_cold.py``).

The sweep is the harness's :func:`~repro.harness.branch_sweep`, as the
fleet campaign's is. ``--jobs N`` fans both of its passes — bases, then
branches — out to a process pool (:mod:`repro.parallel`); results merge
in canonical ``(scenario, seed)`` order and per-run output streams as
branches complete (ordered flush), so the report, the printed lines and
every digest are bit-identical to the serial run. Only the ``execution`` accounting block
(wall times, peak RSS, measured speedup) differs between jobs values,
and it is kept out of :meth:`CampaignReport.as_dict` so determinism
stays mechanically checkable.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import harness
from repro.apps.dispatch import UplinkTransmit
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.checkpoint.snapshot import Checkpoint
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
from repro.sim.units import MS
from repro.telemetry import FailoverTimeline, collect
from repro.transport.packet import FlowDirection, Packet
from repro.transport.udp import UdpSender, UdpSink

#: Probe flow parameters: ~8 Mbps of 1200 B datagrams is one packet per
#: ~1.2 ms — fine-grained enough to resolve sub-10 ms outages, light
#: enough that the cell never saturates.
PROBE_BITRATE_BPS = 8e6
PROBE_PACKET_BYTES = 1200
PROBE_FLOW_ID = "chaos-probe"
PROBE_BEARER_ID = 1

#: Branch this long before a scenario's earliest fault: late enough to
#: amortize warmup, early enough that every plan-scheduled transition
#: is still in the future when the restored harness arms it.
FORK_MARGIN_NS = 10 * MS

#: ``(seed, num_phy_servers, fork_ns)`` — one warm base per key.
ForkKey = Tuple[int, int, int]


@dataclass
class ScenarioRun:
    """One (scenario, seed) execution's verdicts and failover record."""

    scenario: str
    seed: int
    digest: str
    invariants: List[dict]
    passed: bool
    #: ``FailoverTimeline.as_dict()``; its ``downtime_ns`` is the probe
    #: gap the ``bounded_downtime`` invariant bounds.
    timeline: Dict[str, Any]
    #: ``collect(harness)`` without the names that read 0, sorted.
    counters: Dict[str, float]
    #: Detected − last heartbeat, per switch-detector detection.
    detection_latencies_ns: List[int]
    replay_digest_matched: Optional[bool] = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "digest": self.digest,
            "passed": self.passed,
            "invariants": self.invariants,
            "timeline": self.timeline,
            "counters": self.counters,
            "detection_latencies_ns": self.detection_latencies_ns,
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


def judge_execution(
    scenario: ChaosScenario, seed: int, probed: ProbeHarness
) -> ScenarioRun:
    """Judge one finished execution against the scenario's invariants
    and read its failover record.

    Shared by the branches and every restored or rebuilt execution the
    tests compare them with — so there is exactly one judging code path.
    """
    cell = probed.cell
    events = cell.trace.canonical_events()
    results = RecoveryInvariants(
        events,
        window_start_ns=MEASURE_START_NS,
        window_end_ns=MEASURE_END_NS,
        downtime_budget_ns=scenario.downtime_budget_ns,
        expected_migrations=scenario.expected_migrations,
        expect_failover_impossible=scenario.expect_failover_impossible(),
    ).check_all()
    timeline = FailoverTimeline.from_events(
        events, window_start_ns=MEASURE_START_NS, window_end_ns=MEASURE_END_NS
    )
    return ScenarioRun(
        scenario=scenario.name,
        seed=seed,
        digest=cell.trace.digest(),
        invariants=[r.as_dict() for r in results],
        passed=all(r.passed for r in results),
        timeline=timeline.as_dict(),
        counters={name: value for name, value in collect(probed).items() if value},
        detection_latencies_ns=[
            detected_at - last_heartbeat
            for _, detected_at, last_heartbeat in cell.middlebox.detector.detections
            if last_heartbeat is not None
        ],
    )


def earliest_fault_ns(plan: FaultPlan) -> int:
    """The first absolute time at which a plan touches the cell."""
    times = (
        [spec.at_ns for spec in plan.process_faults]
        + [spec.start_ns for spec in plan.link_faults]
        + [spec.at_ns for spec in plan.clock_faults]
    )
    if not times:
        raise ValueError(f"plan {plan.name!r} has no faults to fork before")
    return min(times)


def fork_key(scenario: ChaosScenario, seed: int) -> ForkKey:
    """The warm-base key serving one (scenario, seed) branch."""
    return (
        seed,
        scenario.num_phy_servers,
        earliest_fault_ns(scenario.plan) - FORK_MARGIN_NS,
    )


def build_fork_base(key: ForkKey) -> Checkpoint:
    """Build and checkpoint one warm, unarmed harness at its fork point."""
    seed, num_phy_servers, fork_ns = key
    probed = build_probe_harness(seed, num_phy_servers=num_phy_servers)
    drive_to(probed, fork_ns)
    return Checkpoint.capture(
        probed, label=f"fork-base seed={seed} phys={num_phy_servers} t={fork_ns}"
    )


def run_branch(base: Checkpoint, payload: Tuple[ChaosScenario, int, bool]) -> ScenarioRun:
    """Branch ``base`` into one ``(scenario, seed, replay)`` run and judge
    it; ``replay`` branches the same base a second time and compares the
    digests."""
    scenario, seed, replay = payload

    def branch() -> ProbeHarness:
        probed = base.restore()
        arm_plan(probed, scenario.plan)
        drive_to(probed, RUN_END_NS)
        return probed

    run = judge_execution(scenario, seed, branch())
    if replay:
        run.replay_digest_matched = branch().cell.trace.digest() == run.digest
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
    return _report(*CHAOS.execute(_shards(selected, seeds, replay), jobs, progress))


# ----------------------------------------------------------------------
# CLI: the ``chaos`` verb's declaration (the harness does the rest)
# ----------------------------------------------------------------------
def _format_run(run: ScenarioRun) -> str:
    verdict = "PASS" if run.passed else "FAIL"
    if run.replay_digest_matched is False:
        verdict = "FAIL(replay)"
    downtime = run.timeline["downtime_ns"]
    gap = "-" if downtime is None else f"{downtime / 1e6:8.2f}"
    migrations = run.counters.get("core.mbox.migrations_executed", 0)
    failed = [r["name"] for r in run.invariants if not r["passed"]]
    suffix = f"  !{','.join(failed)}" if failed else ""
    return (
        f"{run.scenario:<18} seed={run.seed:<3} {verdict:<12} "
        f"gap_ms={gap}  migrations={migrations}{suffix}"
    )


def _arguments(parser: argparse.ArgumentParser) -> None:
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
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the digest-stability replay of each run (faster)",
    )


def _cli_shards(args: argparse.Namespace) -> harness.Shards:
    """The matrix a parsed ``--scenario/--seeds/--quick`` names."""
    catalog = scenario_by_name()
    scenarios = harness.select(catalog, args.scenarios or list(catalog), "scenario")
    seeds = args.seeds if args.seeds is not None else ([1] if args.quick else [1, 2, 3])
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
    exact_fields=("digest", "timeline", "counters", "detection_latencies_ns"),
    arguments=_arguments,
    entries=harness.runs_by("scenario", "seed"),
    summary=_summary,
    shards=_cli_shards,
    # One warm base per fork key, one branch per (scenario, seed) run.
    execute=functools.partial(
        harness.branch_sweep,
        base_key=lambda payload: fork_key(*payload[:2]),
        build_base=build_fork_base,
        run_branch=run_branch,
    ),
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
