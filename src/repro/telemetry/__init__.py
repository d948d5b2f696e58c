"""Telemetry: zero-cost-when-disabled metrics + failover timelines.

``python -m repro telemetry`` runs instrumented chaos scenarios,
reconstructs per-run :class:`~repro.telemetry.timeline.FailoverTimeline`
records, and writes ``benchmarks/BENCH_telemetry.json`` with a
``--check`` regression gate (see :mod:`repro.telemetry.runner`).

The package-level API is the instrumentation surface components import:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / ``span(name, t_start_ns, t_end_ns, **attrs)``;
* :func:`active` / :func:`enable` / :func:`disable` / :func:`enabled`
  controlling which registry (if any) newly built components record to;
* :class:`EventCountProbe` counting fired events per subsystem on the
  ``Simulator._pop`` seam;
* :class:`FailoverTimeline` folding canonical trace events into the
  paper's failure→detect→notify→commit→first-good decomposition.

Determinism contract: telemetry records only deterministic counts and
integer simulated-time values — never wall clocks, never RNG draws
(slinglint DET001–004; no stream namespace is owned by ``telemetry``,
so STREAM002/003 refuse an acquisition) — and never writes trace
records, so enabling it is digest-neutral by construction. ``repro.telemetry.runner`` is imported
lazily by the CLI so importing this package stays cheap for the
instrumented components.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    active,
    disable,
    enable,
    enabled,
    merge_snapshots,
)
from repro.telemetry.probe import EVENT_COUNTER_PREFIX, EventCountProbe
from repro.telemetry.timeline import FailoverTimeline

__all__ = [
    "Counter",
    "EVENT_COUNTER_PREFIX",
    "EventCountProbe",
    "FailoverTimeline",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "active",
    "disable",
    "enable",
    "enabled",
    "merge_snapshots",
]
