"""Telemetry: metrics read off a built deployment + failover timelines.

A library, not a verb: ``repro chaos`` reads every run with it once the
run ends and records the result (:func:`repro.faults.campaign.judge_execution`).

* :func:`collect` — a flat ``name -> number`` reading of every
  ``*Stats`` field of a ``SlingshotCell`` or a chaos ``ProbeHarness``,
  in place: no flag, no registry, nothing to enable before the cell is
  built (:func:`stats_objects` is the walk under it);
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
from repro.telemetry.timeline import FailoverTimeline

__all__ = [
    "FailoverTimeline",
    "collect",
    "stats_objects",
]
