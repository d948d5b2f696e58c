"""Zero-cost-when-disabled metrics primitives.

The instrumentation contract has three legs:

* **Zero cost when disabled.** Components capture the *active* registry
  once, at construction (``active()`` returns ``None`` unless a registry
  was enabled first), and guard every instrumentation site with a plain
  ``is not None`` check. A cell built outside ``enabled(...)`` carries
  no telemetry objects at all, so the hot paths the perf harness gates
  are untouched.

* **Sim time only.** Every recorded value is either a deterministic
  count or an integer-nanosecond simulated timestamp/duration. Nothing
  in this package may read a wall clock or draw randomness — the DET
  and STREAM lint rules enforce it here as everywhere — which is what
  makes telemetry output bit-reproducible across machines and
  ``--jobs`` values.

* **Digest neutrality.** A registry never writes to the
  :class:`~repro.sim.trace.TraceRecorder` and never consumes RNG
  stream draws, so enabling telemetry cannot perturb a run's canonical
  trace digest. The telemetry CLI and tests pin this against the
  recorded chaos/perf baselines.

Snapshots are canonical: every mapping is emitted in sorted-key order
and histogram observations in observation order, so per-shard snapshots
merged in canonical shard-key order (:func:`merge_snapshots`) are
bit-identical however the shards were scheduled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value (queue depth, map size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[int] = None

    def set(self, value: int) -> None:
        self.value = value


class Histogram:
    """Raw integer observations (latencies in ns, sizes in bytes).

    Observations are kept verbatim rather than pre-bucketed: the sim is
    deterministic, runs are short, and raw values merge across shards
    without any binning policy baked into the snapshot format.
    """

    __slots__ = ("name", "observations")

    def __init__(self, name: str) -> None:
        self.name = name
        self.observations: List[int] = []

    def observe(self, value: int) -> None:
        self.observations.append(value)

    def summary(self) -> Dict[str, int]:
        obs = self.observations
        if not obs:
            return {"count": 0}
        return {
            "count": len(obs),
            "min": min(obs),
            "max": max(obs),
            "sum": sum(obs),
        }


class Span:
    """One named simulated-time interval with sorted, hashable attrs."""

    __slots__ = ("name", "t_start_ns", "t_end_ns", "attrs")

    def __init__(
        self,
        name: str,
        t_start_ns: int,
        t_end_ns: int,
        attrs: Tuple[Tuple[str, Any], ...],
    ) -> None:
        self.name = name
        self.t_start_ns = t_start_ns
        self.t_end_ns = t_end_ns
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        return self.t_end_ns - self.t_start_ns

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "t_start_ns": self.t_start_ns,
            "t_end_ns": self.t_end_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
        }


class MetricsRegistry:
    """Holds every metric of one instrumented run.

    Metric objects are created on first use and identified by name;
    components may share a name (the counts accumulate). ``span`` records
    are append-only in emission order — which, because the simulator is
    deterministic, is itself deterministic.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[Span] = []
        self._flush_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Metric accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def span(self, name: str, t_start_ns: int, t_end_ns: int, **attrs: Any) -> Span:
        """Record a simulated-time interval (both endpoints in sim ns)."""
        record = Span(name, t_start_ns, t_end_ns, tuple(sorted(attrs.items())))
        self._spans.append(record)
        return record

    @property
    def spans(self) -> Sequence[Span]:
        return tuple(self._spans)

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every :meth:`snapshot`: components that
        account lazily (the detector's timer ticks) bring themselves current."""
        self._flush_hooks.append(hook)

    # ------------------------------------------------------------------
    # Canonical export / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Canonical JSON-ready dump: sorted keys, raw observations."""
        for hook in self._flush_hooks:
            hook()
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    **self._histograms[name].summary(),
                    "observations": list(self._histograms[name].observations),
                }
                for name in sorted(self._histograms)
            },
            "spans": [span.as_dict() for span in self._spans],
        }


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard snapshots, **in canonical shard-key order**, into one.

    Counters add; histograms concatenate observations (shard order, then
    observation order); gauges are last-write-wins in merge order; spans
    concatenate. Because the caller supplies snapshots in canonical
    ``(scenario, seed)`` order, the merged snapshot is independent of
    how many workers produced them.
    """
    merged: Dict[str, Any] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": [],
    }
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = value
        for name, data in snapshot.get("histograms", {}).items():
            observations = merged["histograms"].setdefault(name, [])
            observations.extend(data.get("observations", []))
        merged["spans"].extend(snapshot.get("spans", []))
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = {
        name: {
            "count": len(obs),
            **({"min": min(obs), "max": max(obs), "sum": sum(obs)} if obs else {}),
            "observations": obs,
        }
        for name, obs in sorted(merged["histograms"].items())
    }
    return merged


# ----------------------------------------------------------------------
# The active registry
# ----------------------------------------------------------------------
# Components capture `active()` at construction time, so a registry must
# be enabled *before* the cell is built. Holding the handle (instead of
# re-reading module state per packet) keeps the disabled path to a single
# attribute test and makes the capture explicit in each component.
_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The registry instrumented components should record into, or None."""
    return _ACTIVE


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    _ACTIVE = registry
    return registry


def disable() -> None:
    """Deactivate telemetry; components built afterwards carry none."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def enabled(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scope within which newly built components are instrumented."""
    global _ACTIVE
    previous = _ACTIVE
    installed = enable(registry)
    try:
        yield installed
    finally:
        _ACTIVE = previous
