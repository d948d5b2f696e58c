"""Continuous-operation soak harness + ``python -m repro soak`` CLI.

A soak run drives one cell for a long horizon with background chaos
(:mod:`repro.faults.soak`), under the constraints a real continuously
operating deployment imposes:

* **bounded memory** — the trace keeps only recent windows; the rolling
  digest chain (:meth:`~repro.sim.trace.TraceRecorder.rolling_digest`)
  survives eviction and still equals the full-trace digest;
* **periodic checkpoints** — every ``checkpoint_every_ns`` the whole
  :class:`~repro.faults.soak.SoakState` graph is captured, sealed,
  stamped with the source tree's fingerprint, and written to disk
  (older checkpoints pruned);
* **crash-resume** — ``--resume FILE`` restores a checkpoint and
  finishes the horizon; the resumed run's rolling digest must equal the
  uninterrupted run's, and the recorded baseline pins both.

A profile is one soak plus its resume; the chaos matrix is branched from
warm checkpoints by ``repro chaos`` itself (:mod:`repro.faults.campaign`).
``python -m repro soak --out benchmarks/BENCH_soak.json`` records the
baseline (both profiles); ``--check [--quick]`` reruns one profile
deterministically and compares its exact fields (:mod:`repro.harness`).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import harness
from repro.checkpoint.snapshot import Checkpoint, SnapshotError
from repro.faults.campaign import drive_to
from repro.faults.soak import SoakConfig, SoakState, build_soak_state, plan_summary
from repro.sim.units import MS

#: Checkpoints kept on disk during a soak (older boundaries pruned).
KEEP_CHECKPOINTS = 3

#: The two recorded baseline profiles.
PROFILES: Dict[str, SoakConfig] = {
    "quick": SoakConfig(seed=1, horizon_ns=1_500 * MS),
    "full": SoakConfig(seed=1, horizon_ns=3_000 * MS),
}


def _checkpoint_boundaries(config: SoakConfig, after_ns: int) -> List[int]:
    """Absolute checkpoint times in ``(after_ns, horizon_ns]``.

    Derived from the config alone, so an interrupted run resumed from
    any checkpoint walks the identical boundary schedule.
    """
    boundaries = []
    t = config.checkpoint_every_ns
    while t <= config.horizon_ns:
        if t > after_ns:
            boundaries.append(t)
        t += config.checkpoint_every_ns
    return boundaries


def run_soak(
    config: Optional[SoakConfig] = None,
    checkpoint_dir: Optional[Path] = None,
    resume: Optional[Path] = None,
    keep: int = KEEP_CHECKPOINTS,
) -> Tuple[SoakState, Dict[str, Any], List[Tuple[int, Path]]]:
    """Run (or resume) one soak; returns (state, summary, checkpoints).

    With ``resume`` the config travels inside the restored state and
    ``config`` must be None; a checkpoint of anything but a
    :class:`SoakState` is a ``SnapshotError``. At every boundary the trace evicts all
    complete digest windows behind it and (when ``checkpoint_dir`` is
    set) a checkpoint is written; only the last ``keep``
    boundary checkpoints stay on disk.
    """
    if resume is not None:
        if config is not None:
            raise ValueError("pass either config or resume, not both")
        restored = Checkpoint.load(resume).restore()
        if not isinstance(restored, SoakState):
            raise SnapshotError(f"{resume} is not a soak checkpoint")
        state = restored
        config = state.config
        resumed_from: Optional[int] = state.harness.cell.sim.now
    else:
        if config is None:
            config = PROFILES["full"]
        state = build_soak_state(config)
        resumed_from = None
    probed = state.harness
    cell = probed.cell
    written: List[Tuple[int, Path]] = []
    for boundary in _checkpoint_boundaries(config, cell.sim.now):
        drive_to(probed, boundary)
        cell.trace.evict_before(boundary)
        if checkpoint_dir is not None:
            path = Path(checkpoint_dir) / (
                f"soak_s{config.seed}_t{boundary}.ckpt"
            )
            Checkpoint.capture(
                state, label=f"soak seed={config.seed} t={boundary}"
            ).save(path)
            written.append((boundary, path))
            while len(written) > keep:
                _, stale = written.pop(0)
                stale.unlink(missing_ok=True)
    if cell.sim.now < config.horizon_ns:
        drive_to(probed, config.horizon_ns)
    summary = {
        "seed": config.seed,
        "horizon_ns": config.horizon_ns,
        "window_ns": config.window_ns,
        "checkpoint_every_ns": config.checkpoint_every_ns,
        "rolling_digest": cell.trace.rolling_digest(),
        "events_processed": cell.sim.events_processed,
        "evicted_events": cell.trace.evicted_events,
        "retained_events": len(cell.trace),
        "probe_deliveries": state.monitor.deliveries,
        "max_probe_gap_ms": round(state.monitor.max_gap_ns / 1e6, 3),
        "checkpoints_written": len(written),
        "resumed_from_ns": resumed_from,
        "plan": plan_summary(probed.injector.plan),
    }
    return state, summary, written


def _verify_resume(
    written: Sequence[Tuple[int, Path]], expected_digest: str
) -> Dict[str, Any]:
    """Resume from the earliest retained checkpoint and re-finish.

    The resumed run must reproduce the uninterrupted run's rolling
    digest exactly — mid-horizon state, in-flight faults, evicted
    windows, and the gap monitor all restored bit-for-bit.
    """
    boundary, path = written[0]
    _, summary, _ = run_soak(resume=path)
    return {
        "resumed_from_ns": boundary,
        "rolling_digest": summary["rolling_digest"],
        "digest_matched": summary["rolling_digest"] == expected_digest,
        "max_probe_gap_ms": summary["max_probe_gap_ms"],
    }


def run_profile(profile: str) -> Dict[str, Any]:
    """One recorded-baseline profile: a soak and its crash-resume."""
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        _, soak, written = run_soak(PROFILES[profile], checkpoint_dir=Path(tmp))
        resume = _verify_resume(written, soak["rolling_digest"])
    return {"soak": soak, "resume": resume}


# ----------------------------------------------------------------------
# CLI: the ``soak`` verb's declaration. One soak does not fan out, so
# soak hands the harness a whole ``run`` (and takes no ``--jobs``) and
# adopts its baseline / check / write / exit-code half.
# ----------------------------------------------------------------------
def _arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="CKPT",
        help="restore this checkpoint and finish its horizon",
    )
    parser.add_argument(
        "--ckpt-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for periodic checkpoints (default: temporary)",
    )
    parser.add_argument(
        "--seed", type=harness.at_least(int, 0), default=1,
        help="soak seed (default: 1)",
    )
    parser.add_argument(
        "--horizon",
        # Shorter than one checkpoint interval there is nothing to resume.
        type=harness.at_least(float, SoakConfig().checkpoint_every_ns / 1e9),
        default=None,
        metavar="S",
        help="simulated seconds, at least one checkpoint interval "
        "(default: profile-specific)",
    )


def _describe(soak: Dict[str, Any], resume: Dict[str, Any]) -> str:
    """A one-off soak and its crash-resume check, as text."""
    plan = soak["plan"]
    return "\n".join(
        [
            f"soak: {soak['horizon_ns'] / 1e9:.1f} s horizon, seed {soak['seed']}",
            f"  background faults: {plan['faults_total']} ({plan['by_kind']})",
            f"  probe deliveries:  {soak['probe_deliveries']} "
            f"(max gap {soak['max_probe_gap_ms']:.2f} ms)",
            f"  trace: {soak['events_processed']} events, "
            f"{soak['evicted_events']} evicted, "
            f"{soak['retained_events']} retained",
            f"  rolling digest:    {soak['rolling_digest'][:16]}...",
            f"  crash-resume from {resume['resumed_from_ns'] / 1e6:.0f} ms: "
            + ("digest MATCHED" if resume["digest_matched"] else "digest MISMATCH"),
        ]
    )


def _side_mode(args: argparse.Namespace) -> Optional[int]:
    """``--resume`` and one-off ``--horizon/--seed`` runs (neither is the
    recorded baseline shape, so neither reports nor gates)."""
    if args.resume is not None:
        try:
            _, summary, _ = run_soak(
                resume=args.resume, checkpoint_dir=args.ckpt_dir
            )
        except (OSError, SnapshotError) as exc:
            raise harness.UsageError(f"cannot resume: {exc}")
        print(
            f"resumed from {summary['resumed_from_ns'] / 1e6:.0f} ms, "
            f"finished at {summary['horizon_ns'] / 1e6:.0f} ms"
        )
        print(f"rolling digest: {summary['rolling_digest']}")
        return 0
    if args.horizon is None and args.seed == 1:
        return None
    config = SoakConfig(
        seed=args.seed, horizon_ns=int((args.horizon or 3.0) * 1e9)
    )
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        _, summary, written = run_soak(
            config, checkpoint_dir=args.ckpt_dir or Path(tmp)
        )
        resume = _verify_resume(written, summary["rolling_digest"])
    print(_describe(summary, resume))
    return 0 if resume["digest_matched"] else 1


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    """The recorded shape: ``--quick`` / ``--check`` run one profile, a
    plain run both."""
    profiles = ["quick"] if args.quick else ["full"] if args.check else ["quick", "full"]
    return {
        "benchmark": "soak",
        "profiles": {profile: run_profile(profile) for profile in profiles},
    }


def _summary(report: Dict[str, Any]) -> str:
    return "\n".join(
        f"{profile:<6} digest {section['soak']['rolling_digest'][:12]}...  "
        "crash-resume "
        + ("MATCHED" if section["resume"]["digest_matched"] else "MISMATCH")
        for profile, section in report["profiles"].items()
    )


SOAK = harness.Verb(
    name="soak",
    description="Continuous-operation soak: background chaos, rolling "
    "digests and checkpoint/resume.",
    exact_fields=(
        "soak.rolling_digest",
        "soak.events_processed",
        "soak.probe_deliveries",
        "resume.rolling_digest",
    ),
    arguments=_arguments,
    entries=lambda report: report["profiles"],
    summary=_summary,
    run=_run,
    passed=lambda report: all(
        section["resume"]["digest_matched"] for section in report["profiles"].values()
    ),
    side_mode=_side_mode,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main(SOAK, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
