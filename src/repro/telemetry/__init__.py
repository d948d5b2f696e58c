"""Telemetry: metrics read off a built deployment + failover timelines.

``python -m repro telemetry`` runs the chaos scenarios under an engine
probe, reads every layer's counters off the finished harness,
reconstructs per-run :class:`~repro.telemetry.timeline.FailoverTimeline`
records, and gates the result against ``benchmarks/BENCH_telemetry.json``
(see :mod:`repro.telemetry.runner`).

The package-level API:

* :func:`collect` — a flat ``name -> number`` reading of every
  ``*Stats`` field of a ``SlingshotCell`` or a chaos ``ProbeHarness``,
  in place: no flag, no registry, nothing to enable before the cell is
  built (:func:`stats_objects` is the walk under it);
* :func:`snapshot` / :func:`merge_snapshots` — the JSON form of one
  run's reading and the canonical-order merge across shards;
* :class:`EventCountProbe` counting fired events per subsystem on the
  ``Simulator._pop`` seam;
* :class:`FailoverTimeline` folding canonical trace events into the
  paper's failure→detect→notify→commit→first-good decomposition.

Nothing simulated imports this package (``tests/test_wiring_site.py``):
components count in their own ``Stats`` fields and telemetry only reads
them. Determinism contract: every value is a deterministic count or an
integer simulated-time value — never a wall clock, never an RNG draw
(slinglint DET001–004; no stream namespace is owned by ``telemetry``,
so STREAM002/003 refuse an acquisition) — and reading writes no trace
record, so looking at a run is digest-neutral by construction.
"""

from repro.telemetry.collect import collect, stats_objects
from repro.telemetry.metrics import merge_snapshots, snapshot
from repro.telemetry.probe import EVENT_COUNTER_PREFIX, EventCountProbe
from repro.telemetry.timeline import FailoverTimeline

__all__ = [
    "EVENT_COUNTER_PREFIX",
    "EventCountProbe",
    "FailoverTimeline",
    "collect",
    "merge_snapshots",
    "snapshot",
    "stats_objects",
]
