"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list
    python -m repro fig3 [--runs N]
    python -m repro fig8 --duration 12 --failure-at 2.6
    python -m repro table2 --duration 60 --rates 1 10 20 50
    python -m repro all --quick
    python -m repro sec52
    python -m repro chaos [--scenario NAME ...] [--seeds 1 2 3] [--jobs N]
    python -m repro soak [--check --quick] [--resume CKPT]
    python -m repro fleet [--check --quick] [--pool-sizes 0 1 2 4] [--jobs N]

Every experiment subcommand is derived from the
:data:`repro.experiments.REGISTRY` — the registry entry supplies the
description, the default/quick durations, and the mapping from parsed
CLI arguments to ``run(...)`` parameters, so adding an experiment means
registering a spec, not writing another shim. ``chaos`` sweeps the
:mod:`repro.faults` fault-injection matrix and records each run's
failover timeline and every layer's counters (:mod:`repro.telemetry`);
``soak`` and ``fleet`` are the continuous-operation and metro-fleet
campaigns, reached only as verbs (``all`` runs the paper experiments).
The simulator's speed is measured by the repo benchmark,
``bench/run.py``, not by a verb here. ``sec52`` takes no flags: it is
§5.2's and §8.2's one forked sweep over all 56 kill phases.

The former per-experiment ``_run_*`` functions are gone; their exact
argument mappings live in each spec's ``cli_params``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import REGISTRY, ExperimentSpec
from repro.harness import at_least
from repro.perf.timing import wall_ns

#: Verbs dispatched to their own sub-CLIs before experiment argument
#: parsing: name -> (module whose ``main(argv)`` runs it, imported
#: lazily; the line ``list`` prints for it). Each is a declaration
#: handed to :mod:`repro.harness`.
_HARNESS_VERBS = {
    "chaos": ("repro.faults.campaign",
              "fault-injection campaign: invariants, timelines, counters"),
    "soak": ("repro.checkpoint.soak",
             "continuous-operation run: checkpoints and resume"),
    "fleet": ("repro.fleet.campaign",
              "metro-scale availability vs pooled standby count"),
}


def _registry_runner(spec: ExperimentSpec) -> Callable:
    """CLI adapter: parsed+defaulted args -> run -> paper-style summary."""

    def runner(args) -> str:
        return spec.summarize(spec.run(**spec.cli_params(args)))

    return runner


#: name -> (runner, description, default duration in seconds).
#: Derived from the experiment registry; the tuple shape is public API
#: (tests and docs index it), only its construction changed.
EXPERIMENTS: Dict[str, Tuple[Callable, str, float]] = {
    spec.name: (_registry_runner(spec), spec.description, spec.default_duration_s)
    for spec in REGISTRY.values()
}

#: Scaled-down durations for `--quick` / `all --quick`.
QUICK_DURATION: Dict[str, float] = {
    spec.name: spec.quick_duration_s
    for spec in REGISTRY.values()
    if spec.quick_duration_s is not None
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Slingshot paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all' / 'list'",
    )
    parser.add_argument("--duration", type=at_least(float, 0, strict=True),
                        default=None,
                        help="simulated seconds (default: experiment-specific)")
    parser.add_argument("--failure-at", type=at_least(float, 0), default=None,
                        help="failure/event injection time in seconds")
    parser.add_argument("--runs", type=at_least(int, 1), default=None,
                        help="migrations per transport for fig3 (default 40)")
    parser.add_argument("--rates", type=at_least(float, 0, strict=True),
                        nargs="+",
                        default=[1.0, 10.0, 20.0, 50.0],
                        help="migration rates for table2")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down durations for a fast pass")
    return parser


def _defaults_for(name: str, args) -> None:
    _, _, default_duration = EXPERIMENTS[name]
    if args.duration is None:
        args.duration = (
            QUICK_DURATION.get(name, default_duration)
            if args.quick else default_duration
        )
    if args.failure_at is None:
        if name == "fig10":
            # Flows must be converged (past TCP slow start) at the event.
            args.failure_at = args.duration * 0.75
        else:
            args.failure_at = max(min(args.duration * 0.4, 2.6), 0.8)
    if args.quick and args.experiment == "all" and name == "table2":
        args.rates = [1.0, 20.0]


def _wall_seconds() -> float:
    """Host wall-clock seconds, for user-facing elapsed-time output only.

    Read through :mod:`repro.perf.timing`, the one module DET001
    sanctions to touch the host clock; simulation logic uses
    Simulator.now.
    """
    return wall_ns() / 1e9


def _dispatch_harness(verb: str, argv: List[str]) -> int:
    import importlib

    return importlib.import_module(_HARNESS_VERBS[verb][0]).main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv and raw_argv[0] in _HARNESS_VERBS:
        return _dispatch_harness(raw_argv[0], raw_argv[1:])
    args = build_parser().parse_args(raw_argv)
    if args.experiment == "list":
        print("available experiments:")
        for name, (_, description, _) in EXPERIMENTS.items():
            print(f"  {name:9s} {description}")
        for name, (_, description) in _HARNESS_VERBS.items():
            print(f"  {name:9s} {description}")
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"repro: unknown experiment(s): {', '.join(unknown)} "
            "(run 'python -m repro list' for options)",
            file=sys.stderr,
        )
        return 2
    for name in names:
        runner, description, _ = EXPERIMENTS[name]
        per_run_args = build_parser().parse_args(raw_argv)
        per_run_args.experiment = args.experiment
        _defaults_for(name, per_run_args)
        print(f"\n=== {name}: {description} ===")
        started = _wall_seconds()
        print(runner(per_run_args))
        print(f"  [{_wall_seconds() - started:.1f}s wall]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.
    sys.exit(main())
