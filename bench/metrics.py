"""The metric catalogue: names, units, directions, bounds, and assembly.

*Host* metrics are simulator wall time and memory and are noisy; *sim*
metrics are properties of the modelled system and must repeat exactly
for a given seed, so their regression bound is 0.

``BENCHMARK.json`` gates only the host metrics (``CONTRACT_END_TO_END``):
its driver compares runs across *different* seeds, and every simulated
metric legitimately depends on the seed (the fault's phase alone moves
``detect_latency_us`` across 0-459 us), is undefined on some workload, or
is legitimately 0. The simulated end-to-end metrics are therefore
enforced by ``correct`` (paper bounds, exact repeatability, digests) and
reported under per-layer names (``SIM_ALIASES``) in the ledger.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

import spans
from micro import DRIVERS

#: The nine end-to-end metrics: (name, kind, unit, better, bound).
END_TO_END = (
    ("sim_rate", "host", "sim-s/wall-s", "higher", 0.15),
    ("peak_rss_mb", "host", "MB", "lower", 0.10),
    ("setup_s", "host", "s", "lower", 0.25),
    ("downtime_ms", "sim", "ms", "lower", 0.0),
    ("dropped_ttis", "sim", "count", "lower", 0.0),
    ("detect_latency_us", "sim", "us", "lower", 0.0),
    ("goodput_mbps", "sim", "Mb/s", "higher", 0.0),
    ("app_latency_p95_ms", "sim", "ms", "lower", 0.0),
    ("availability_pct", "sim", "%", "higher", 0.0),
)
CONTRACT_END_TO_END = tuple(row for row in END_TO_END if row[1] == "host")

#: Simulated end-to-end metric -> its name in the per-layer ledger.
SIM_ALIASES = {
    "downtime_ms": "apps.downtime_ms",
    "dropped_ttis": "fronthaul.dropped_ttis",
    "detect_latency_us": "core.detect_latency_us",
    "goodput_mbps": "apps.goodput_mbps",
    "app_latency_p50_ms": "apps.latency_p50_ms",
    "app_latency_p95_ms": "apps.latency_p95_ms",
    "availability_pct": "fleet.availability_pct",
}

#: Exact counts over the measured window: (name, unit, better).
_COUNTS = (
    ("sim.events", "count", "lower"),
    ("sim.wheel_ticks", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("net.frames", "count", "lower"),
    ("net.drops", "count", "lower"),
    ("fronthaul.packets", "count", "lower"),
    ("fronthaul.slots_without_control", "count", "lower"),
    ("phy.blocks_decoded", "count", "lower"),
    ("phy.garbage_decodes", "count", "lower"),
    ("phy.decode_iters", "count", "lower"),
    ("phy.bler", "ratio", "lower"),
    ("phy.harq_combines", "count", "lower"),
    ("fapi.messages", "count", "lower"),
    ("fapi.null_requests", "count", "lower"),
    ("core.mbox_packets", "count", "lower"),
    ("core.mbox_filtered", "count", "lower"),
    ("core.detector_ticks", "count", "lower"),
    ("core.migrations", "count", "lower"),
    ("core.cmd_retx", "count", "lower"),
    ("l2.tbs", "count", "lower"),
    ("l2.harq_retx", "count", "lower"),
    ("l2.rlc_retx", "count", "lower"),
    ("l2.rlc_status", "count", "lower"),
    ("transport.tcp_segments", "count", "lower"),
    ("transport.tcp_retx", "count", "lower"),
    ("transport.tcp_rto", "count", "lower"),
    ("transport.udp_sent", "count", "higher"),
    ("transport.udp_lost", "count", "lower"),
    ("apps.loss_pct", "%", "lower"),
    ("fleet.kernel_invocations", "count", "lower"),
    ("fleet.blocks_encoded", "count", "lower"),
    ("fleet.cache_hits", "count", "higher"),
    ("fleet.gather_passes", "count", "lower"),
    ("fleet.pool_grants", "count", "higher"),
    ("fleet.pool_denials", "count", "lower"),
)

_SIM_IN_LEDGER = (
    ("apps.downtime_ms", "ms", "lower"),
    ("fronthaul.dropped_ttis", "count", "lower"),
    ("core.detect_latency_us", "us", "lower"),
    ("apps.goodput_mbps", "Mb/s", "higher"),
    ("apps.latency_p50_ms", "ms", "lower"),
    ("apps.latency_p95_ms", "ms", "lower"),
    ("fleet.availability_pct", "%", "higher"),
)

_HOST = (
    ("host.wall_median_s", "s", "lower"),
    ("host.wall_iqr_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.trace_overhead_pct", "%", "lower"),
    ("host.repeats", "count", "higher"),
)


def _per_layer_catalogue() -> tuple:
    rows: List[tuple] = []
    for layer in spans.LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.share", "ratio", "lower"))
        rows.append((f"{layer}.calls", "count", "lower"))
    rows += [(f"{name}.self_s", "s", "lower") for name in spans.SUB_SPANS]
    rows += list(_COUNTS)
    rows += [(name, "us", "lower") for name in DRIVERS]
    rows += list(_HOST)
    rows += list(_SIM_IN_LEDGER)
    return tuple(rows)


#: Every per-layer metric: (name, unit, better).
PER_LAYER = _per_layer_catalogue()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Optional[tuple]:
    """(q1, median, q3); None for an empty sample."""
    if not values:
        return None
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = quartiles(values)
    if q is None or not q[1]:
        return 0.0
    return (q[2] - q[0]) / abs(q[1])


#: The reference host: one on which ``worker.calibration_work`` takes this
#: long. On the 2-core Xeon 2.1 GHz sandbox the loop's quiet time is
#: 180-185 us and its median 210-225 us, so a reference second is close
#: to a quiet wall second there.
CALIBRATION_REF_NS = 200_000


def chunk_costs(run: dict) -> List[float]:
    """Each chunk's wall in calibration loops: its wall over the
    calibration loop timed right before it."""
    return [w / c for w, c in zip(run["chunk_wall_ns"], run["chunk_calib_ns"])]


def normalised_work(run: dict) -> float:
    """One repeat's measured window in calibration loops."""
    return sum(chunk_costs(run))


def quiet_wall_s(repeats: Sequence[dict]) -> float:
    """Seconds the measured window takes on the reference host.

    On this class of host the same interpreter work runs up to 1.6x
    slower for tens of milliseconds at a time, on top of seconds-long
    slow phases: whole-run wall of identical runs spreads 25 %, and even
    per-chunk minima over three repeats spread 6 %. So the window is
    driven in chunks of 15-40 ms, the worker times a fixed calibration
    loop right before each chunk, and a chunk's cost is its wall in units
    of that local sample. Per chunk the median over the repeats is kept,
    the costs are summed, and the sum is turned into seconds at the
    reference host's speed (``CALIBRATION_REF_NS`` per loop). Identical
    repeats agree to ~2 % this way.
    """
    chunks = zip(*[chunk_costs(r) for r in repeats])
    return sum(statistics.median(chunk) for chunk in chunks) * CALIBRATION_REF_NS / 1e9


def setup_s(run: dict) -> float:
    """Seconds one repeat's set-up takes on the reference host.

    Set-up (worker spawned -> end of warm-up) is interpreter start,
    imports, table construction and build: it cannot be chunked, and its
    plain wall followed the host's slow phases (medians of two ten-seed
    sets taken an hour apart differed 18-42 %). So it is scaled by how
    fast the host was during that repeat: the median of the calibration
    samples of the window that follows it. The same two sets then differ
    1-4 %.
    """
    wall_s = run["setup_done_unix"] - run["spawned_unix"]
    return wall_s * CALIBRATION_REF_NS / statistics.median(run["chunk_calib_ns"])


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def end_to_end_values(repeats: List[dict]) -> Dict[str, Any]:
    """The end-to-end metrics of one untraced set (those that apply)."""
    quiet = quiet_wall_s(repeats)
    out: Dict[str, Any] = {
        "sim_rate": repeats[0]["sim_window_s"] / quiet,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        "setup_s": statistics.median(setup_s(r) for r in repeats),
    }
    simulated = repeats[0]["simulated"]
    for name, kind, *_ in END_TO_END:
        if kind == "sim" and simulated.get(name) is not None:
            out[name] = simulated[name]
    if "app_latency_p50_ms" in simulated:
        out["app_latency_p50_ms"] = simulated["app_latency_p50_ms"]
        out["app_latency_samples"] = simulated["app_latency_samples"]
    return out


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    """``None`` while either count is unresolved; 0 over an empty count."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    repeats: List[dict], trace: dict, micro: dict, trace_overhead_pct: float,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric from the untraced repeats, the traced
    pass's summary and the micro drivers; ``None`` where a boundary,
    stats path or driver no longer resolves."""
    values: Dict[str, Optional[float]] = {name: None for name, _, _ in PER_LAYER}
    counts = repeats[0]["counts"]
    quiet = quiet_wall_s(repeats)
    # 1. Traced pass. A span name is gone when none of its boundaries resolved.
    fed = {n for path, n in spans.BOUNDARIES if path not in trace["unresolved_boundaries"]}
    gone = {n for _, n in spans.BOUNDARIES} - fed
    for layer in spans.LAYERS:
        agg = trace["layers"].get(layer, {"self_s": 0.0, "share": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = agg["self_s"]
        values[f"{layer}.share"] = agg["share"]
        values[f"{layer}.calls"] = agg["calls"]
    for name in spans.SUB_SPANS:
        if name not in gone:
            values[f"{name}.self_s"] = trace["names"].get(name, {"self_s": 0.0})["self_s"]
    values["sim.wheel_ticks"] = trace["wheel_ticks"]
    if "l2.rlc_status" not in gone:
        values["l2.rlc_status"] = trace["names"].get("l2.rlc_status", {"calls": 0})["calls"]
    # 2. Exact counts.
    for name, _, _ in _COUNTS:
        if name in counts:
            values[name] = counts[name]
    simulated = repeats[0]["simulated"]
    facts = simulated["facts"]
    values["sim.us_per_event"] = _ratio(quiet * 1e6, counts["sim.events"])
    values["phy.bler"] = _ratio(counts["phy.crc_failures"], counts["phy.blocks_decoded"])
    sent, lost = counts["transport.udp_sent"], counts["transport.udp_lost"]
    if sent is not None and lost is not None:
        values["apps.loss_pct"] = _ratio(
            100.0 * (lost + facts["pings_lost"]), sent + facts["pings_sent"]
        )
    # 3. Micro.
    values.update(micro["micro"])
    # Host.
    walls = [sum(r["chunk_wall_ns"]) / 1e9 for r in repeats]
    q = quartiles(walls)
    values["host.wall_median_s"] = q[1]
    values["host.wall_iqr_s"] = q[2] - q[0]
    values["host.cpu_s"] = statistics.median(r["cpu_s"] for r in repeats)
    values["host.trace_overhead_pct"] = trace_overhead_pct
    values["host.repeats"] = len(repeats)
    # Simulated end-to-end metrics under their ledger names; one that
    # does not apply to the workload reads 0.
    for name, alias in SIM_ALIASES.items():
        values[alias] = simulated.get(name) or 0.0
    return values
