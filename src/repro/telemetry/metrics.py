"""The snapshot: what one run's metrics look like on disk, and their merge.

A snapshot is ``{"counters": {name: number}, "histograms": {name:
{count, min, max, sum, observations}}}``. The counters are what
:func:`repro.telemetry.collect.collect` read off the deployment, plus
the engine probe's per-subsystem event counts, **minus every name that
reads 0** — a name absent from a snapshot reads 0, which is also how
:func:`merge_snapshots` treats it. Histograms keep their raw integer
observations rather than buckets: the sim is deterministic, runs are
short, and raw values merge across shards with no binning policy baked
into the format.

Every value is a deterministic count or an integer-nanosecond simulated
duration (one float: ``PhyCpuStats.busy_core_us``, an order-fixed IEEE
sum and therefore just as exact), and every mapping is emitted in
sorted-key order, so per-shard snapshots merged in canonical shard-key
order are bit-identical however the shards were scheduled.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence


def snapshot(
    counters: Mapping[str, float], histograms: Mapping[str, Sequence[int]]
) -> Dict[str, Any]:
    """Canonical JSON-ready form: sorted names, zero counters and empty
    histograms left out, observations in the order given."""
    return {
        "counters": {
            name: value for name, value in sorted(counters.items()) if value
        },
        "histograms": {
            name: {
                "count": len(observations),
                "min": min(observations),
                "max": max(observations),
                "sum": sum(observations),
                "observations": list(observations),
            }
            for name, observations in sorted(histograms.items())
            if observations
        },
    }


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard snapshots, **in canonical shard-key order**, into one.

    Counters add; histograms concatenate observations (shard order, then
    observation order). Because the caller supplies snapshots in
    canonical ``(scenario, seed)`` order, the merged snapshot is
    independent of how many workers produced them.
    """
    counters: Dict[str, float] = {}
    histograms: Dict[str, List[int]] = {}
    for shard in snapshots:
        for name, value in shard["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, data in shard["histograms"].items():
            histograms.setdefault(name, []).extend(data["observations"])
    return snapshot(counters, histograms)
