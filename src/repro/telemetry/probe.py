"""Per-subsystem event counting on the ``Simulator._pop`` seam.

Every fired event leaves the queue through :meth:`Simulator._pop`, so a
single hook point sees the whole simulation without instrumenting any
component. :class:`EventCountProbe` *counts* every popped event into the
active :class:`~repro.telemetry.metrics.MetricsRegistry` under
``engine.events.<subsystem>``, where :func:`subsystem_of` buckets a
callback by its defining module (``repro.sim``, ``repro.phy``, ...).
Wall-time shares per layer are ``bench/spans.py``'s job, measured from
outside on a fingerprinted host; the counts here are exact.

On exit the probe also publishes two counters every engine keeps anyway,
summed over the simulators it saw: ``engine.cancel_noops`` and
``engine.compactions`` (heap rebuilds — where cancel / re-arm churn,
periodic or not, shows up).

Counting never touches the handle's callback, never reads a clock, and
never writes a trace record, so a probed run's canonical digest is
bit-identical to an unprobed one. The patch is class-level and
process-global for the duration of the ``with`` block, and not
reentrant.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.telemetry.metrics import MetricsRegistry, active

#: Counter-name prefix for per-subsystem fired-event counts.
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

        registry = MetricsRegistry()
        with enabled(registry), EventCountProbe() as probe:
            run_scenario(...)
        registry.snapshot()["counters"]["engine.events.repro.phy"]

    With no explicit registry the probe records into the active one at
    entry time; with neither, counts accumulate only in :attr:`counts`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry
        #: Fired-event count per subsystem (always populated).
        self.counts: Dict[str, int] = {}
        self._saved_pop: Optional[Callable[..., Any]] = None
        self._entered_registry: Optional[MetricsRegistry] = None
        #: Simulators seen popping (their counters are published on exit).
        self._sims: List[Simulator] = []

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Class-level _pop patch (save, wrap, restore)
    # ------------------------------------------------------------------
    def __enter__(self) -> "EventCountProbe":
        if self._saved_pop is not None:
            raise RuntimeError("EventCountProbe is not reentrant")
        registry = self._registry if self._registry is not None else active()
        self._entered_registry = registry
        counts = self.counts
        sims = self._sims
        last_sim: List[Optional[Simulator]] = [None]
        inner_pop = Simulator._pop
        self._saved_pop = inner_pop

        if registry is not None:
            counters = registry._counters
            counter_for = registry.counter

            def counting_pop(sim: Simulator, limit: Optional[int] = None):
                entry = inner_pop(sim, limit)
                if entry is not None:
                    if sim is not last_sim[0]:
                        last_sim[0] = sim
                        if sim not in sims:
                            sims.append(sim)
                    bucket = subsystem_of(entry[3].callback)
                    counts[bucket] = counts.get(bucket, 0) + 1
                    name = EVENT_COUNTER_PREFIX + bucket
                    counter = counters.get(name)
                    if counter is None:
                        counter = counter_for(name)
                    counter.value += 1
                return entry

        else:

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
        registry = self._entered_registry
        self._entered_registry = None
        if registry is not None:
            for name in ("cancel_noops", "compactions"):
                registry.counter("engine." + name).inc(
                    sum(getattr(sim, name) for sim in self._sims)
                )
