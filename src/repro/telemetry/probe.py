"""Per-subsystem event counting on the ``Simulator._pop`` seam.

Every fired event leaves the queue through :meth:`Simulator._pop`, so a
single hook point sees the whole simulation without instrumenting any
component. :class:`EventCountProbe` *counts* every popped event into
:attr:`EventCountProbe.counts` by subsystem, where :func:`subsystem_of`
buckets a callback by its defining module (``repro.sim``,
``repro.phy``, ...); ``repro telemetry`` publishes the buckets as
``engine.events.<subsystem>``. Wall-time shares per layer are
``bench/spans.py``'s job, measured from outside on a fingerprinted host;
the counts here are exact. (The two counters every engine keeps anyway,
``cancel_noops`` and ``compactions``, are read off the simulator by
:func:`repro.telemetry.collect.collect`, not here.)

Counting never touches the handle's callback, never reads a clock, and
never writes a trace record, so a probed run's canonical digest is
bit-identical to an unprobed one. The patch is class-level and
process-global for the duration of the ``with`` block, and not
reentrant.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.engine import Simulator

#: Name prefix ``repro telemetry`` publishes :attr:`EventCountProbe.counts`
#: under.
EVENT_COUNTER_PREFIX = "engine.events."


def subsystem_of(callback: Callable[..., Any]) -> str:
    """Attribution bucket for a callback: its defining module, truncated
    to ``repro.<subsystem>`` (non-repro callbacks bill to their top-level
    module; callables without a module bill to ``unknown``)."""
    module = getattr(callback, "__module__", None)
    if not module:
        return "unknown"
    parts = module.split(".")
    return ".".join(parts[:2]) if parts[0] == "repro" else parts[0]


class EventCountProbe:
    """Context manager counting every fired event by subsystem.

    Usage::

        with EventCountProbe() as probe:
            cell.run_until(...)
        probe.counts["repro.phy"], probe.total_events
    """

    def __init__(self) -> None:
        #: Fired-event count per subsystem.
        self.counts: Dict[str, int] = {}
        self._saved_pop: Optional[Callable[..., Any]] = None

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Class-level _pop patch (save, wrap, restore)
    # ------------------------------------------------------------------
    def __enter__(self) -> "EventCountProbe":
        if self._saved_pop is not None:
            raise RuntimeError("EventCountProbe is not reentrant")
        counts = self.counts
        inner_pop = Simulator._pop
        self._saved_pop = inner_pop

        def counting_pop(sim: Simulator, limit: Optional[int] = None):
            entry = inner_pop(sim, limit)
            if entry is not None:
                bucket = subsystem_of(entry[3].callback)
                counts[bucket] = counts.get(bucket, 0) + 1
            return entry

        Simulator._pop = counting_pop
        return self

    def __exit__(self, *exc_info: Any) -> None:
        Simulator._pop = self._saved_pop
        self._saved_pop = None
