"""Experiment harnesses: one module per paper figure/table.

Each module exposes a ``run(...)`` function returning a result dataclass
plus a ``summarize(result)`` pretty-printer. The CLI, the tier-1 claim
tests (``tests/test_experiments_smoke.py``) and the scripts under
``examples/`` all call into these, so there is exactly one code path per
experiment.

Durations are parameters: the defaults regenerate the paper's plots at
full length, while the tests pass scaled-down windows (documented in
EXPERIMENTS.md) to keep tier-1 runtimes sane. §5.2 and §8.2 have no
scale to shrink: each is one forked sweep over all 56 kill phases.

The **Experiment registry** is the single source of truth the CLI is
derived from: each paper experiment is registered as an
:class:`ExperimentSpec` (name, module, description, durations, and the
CLI-argument → ``run(...)`` parameter mapping), and ``python -m repro
list`` / the per-experiment subcommands are generated from
:data:`REGISTRY` rather than hand-written shims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.experiments import (
    fig3_vm_migration,
    fig8_video,
    fig9_ping,
    fig10_throughput,
    fig11_upgrade,
    fig12_orion_latency,
    table2_stress,
    sec52_detector,
    sec82_dropped_ttis,
    sec85_overhead,
    sec86_switch,
    ablations,
    ext_massive_mimo,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment module + its CLI metadata.

    ``cli_params`` maps a parsed ``repro`` argparse namespace (after
    per-experiment defaulting) to ``run(...)`` keyword arguments — the
    same mappings the former hand-written ``_run_*`` shims applied, so
    CLI behaviour is unchanged.
    """

    name: str
    description: str
    #: Default simulated duration surfaced by the CLI (0.0 for
    #: experiments without a single duration knob).
    default_duration_s: float
    module: Any
    cli_params: Callable[[Any], Dict[str, Any]]
    #: Scaled-down duration used by ``--quick`` (None: no quick scaling).
    quick_duration_s: Optional[float] = None

    def run(self, **params: Any) -> Any:
        return self.module.run(**params)

    def summarize(self, result: Any) -> str:
        return self.module.summarize(result)


#: The experiment registry, in paper presentation order.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"experiment {spec.name!r} registered twice")
    REGISTRY[spec.name] = spec
    return spec


register(ExperimentSpec(
    name="fig3",
    description="VM-migration pause-time CDF (baseline)",
    default_duration_s=0.0,
    module=fig3_vm_migration,
    # --runs unset: fig3's own default, the paper's 40 per transport.
    cli_params=lambda args: (
        {} if args.runs is None else {"runs_per_transport": args.runs}
    ),
))
register(ExperimentSpec(
    name="fig8",
    description="video conferencing through PHY failure",
    default_duration_s=12.0,
    quick_duration_s=5.0,
    module=fig8_video,
    cli_params=lambda args: {
        "duration_s": args.duration, "failure_at_s": args.failure_at,
    },
))
register(ExperimentSpec(
    name="fig9",
    description="ping latency across failover (3 UEs)",
    default_duration_s=4.0,
    quick_duration_s=3.2,
    module=fig9_ping,
    cli_params=lambda args: {
        "duration_s": args.duration, "failure_at_s": args.failure_at,
    },
))
register(ExperimentSpec(
    name="fig10",
    description="TCP/UDP throughput through failover",
    default_duration_s=2.4,
    quick_duration_s=2.4,
    module=fig10_throughput,
    cli_params=lambda args: {
        "duration_s": args.duration, "event_at_s": args.failure_at,
    },
))
register(ExperimentSpec(
    name="fig11",
    description="zero-downtime live FEC upgrade",
    default_duration_s=10.0,
    quick_duration_s=6.0,
    module=fig11_upgrade,
    cli_params=lambda args: {
        "duration_s": args.duration, "upgrade_at_s": args.duration / 2,
    },
))
register(ExperimentSpec(
    name="fig12",
    description="Orion added latency vs load",
    default_duration_s=1.0,
    quick_duration_s=0.5,
    module=fig12_orion_latency,
    cli_params=lambda args: {"duration_s": min(args.duration, 2.0)},
))
register(ExperimentSpec(
    name="table2",
    description="PHY-state-discard stress test",
    default_duration_s=60.0,
    quick_duration_s=4.0,
    module=table2_stress,
    cli_params=lambda args: {
        "rates_per_s": args.rates, "duration_s": args.duration,
    },
))
register(ExperimentSpec(
    name="sec52",
    description="in-switch failure-detector microbench",
    default_duration_s=0.0,
    module=sec52_detector,
    cli_params=lambda args: {},
))
register(ExperimentSpec(
    name="sec82",
    description="dropped TTIs per resilience event",
    default_duration_s=0.0,
    module=sec82_dropped_ttis,
    cli_params=lambda args: {},
))
register(ExperimentSpec(
    name="sec85",
    description="secondary-PHY (null FAPI) overhead",
    default_duration_s=3.0,
    quick_duration_s=1.5,
    module=sec85_overhead,
    cli_params=lambda args: {"duration_s": min(args.duration, 5.0)},
))
register(ExperimentSpec(
    name="sec86",
    description="switch resources + inter-packet gap",
    default_duration_s=3.0,
    quick_duration_s=1.5,
    module=sec86_switch,
    cli_params=lambda args: {"gap_duration_s": min(args.duration, 5.0)},
))

__all__ = [
    "ExperimentSpec",
    "REGISTRY",
    "register",
    "fig3_vm_migration",
    "fig8_video",
    "fig9_ping",
    "fig10_throughput",
    "fig11_upgrade",
    "fig12_orion_latency",
    "table2_stress",
    "sec52_detector",
    "sec82_dropped_ttis",
    "sec85_overhead",
    "sec86_switch",
    "ablations",
    "ext_massive_mimo",
]
