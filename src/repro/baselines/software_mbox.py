"""Software (DPDK) fronthaul middlebox — the design §5 argues against.

A server-based middlebox can implement the same steering/filtering logic
as the in-switch pipeline, but it (1) adds fronthaul latency — the
paper's DPDK prototype added ~10 µs at the 99.999th percentile, eating
~10 % of the sub-100 µs one-way fronthaul budget and thus ~10 % of the
datacenter's serviceable radius; (2) doubles per-server NIC bandwidth by
adding a hop to every fronthaul packet; and (3) burns dedicated CPU
cores (~10 % of the PHY's core count).

This model quantifies those three costs so the ablation bench can put
numbers beside the in-switch design's ~0.
"""

from __future__ import annotations

import numpy as np

from repro.sim.units import US

#: Propagation speed in fiber, ~5 µs per km one way.
FIBER_NS_PER_KM = 5_000.0


# Latency/cost model of the DPDK middlebox.

#: Median added one-way latency per fronthaul packet.
MEDIAN_LATENCY_NS = 4_500
#: Lognormal sigma of the added latency (tail from bursty batching).
LATENCY_SIGMA = 0.18
#: Rare scheduling hiccup: probability and added delay (beyond the
#: p99.999 the paper quotes, but present).
HICCUP_PROBABILITY = 3e-6
HICCUP_EXTRA_NS = 25_000
#: One-way fronthaul delay budget (O-RAN split 7.2x).
FRONTHAUL_BUDGET_NS = 100 * US
#: Dedicated cores per PHY server the software middlebox needs.
MBOX_CORES_PER_SERVER = 1.6
#: PHY cores per server (FlexRAN-class deployment).
PHY_CORES_PER_SERVER = 16.0
#: The tail percentile the paper quotes (p99.999 ≈ 10 µs).
TAIL_PERCENTILE = 99.999
#: Draws per percentile estimate.
LATENCY_SAMPLES = 400_000


class SoftwareMiddleboxModel:
    """Samples the software middlebox's added latency and derives costs."""

    def __init__(self, *, rng: np.random.Generator) -> None:
        self.rng = rng

    def sample_added_latency_ns(self, count: int) -> np.ndarray:
        """Draw per-packet added one-way latencies."""
        base = self.rng.lognormal(np.log(MEDIAN_LATENCY_NS), LATENCY_SIGMA, size=count)
        hiccups = self.rng.random(count) < HICCUP_PROBABILITY
        base[hiccups] += self.rng.uniform(0.3, 1.0, hiccups.sum()) * HICCUP_EXTRA_NS
        return base

    def added_latency_percentile_ns(self, percentile: float) -> float:
        """Added latency at a percentile (the paper quotes p99.999 ≈ 10 µs)."""
        samples = self.sample_added_latency_ns(LATENCY_SAMPLES)
        return float(np.percentile(samples, percentile))

    def radius_km(self, added_latency_ns: float) -> float:
        """Max RU-to-datacenter distance under the fronthaul budget."""
        usable = FRONTHAUL_BUDGET_NS - added_latency_ns
        return max(usable, 0.0) / FIBER_NS_PER_KM

    def radius_reduction_fraction(self) -> float:
        """Coverage-radius loss caused by the middlebox's tail latency."""
        baseline = self.radius_km(0.0)
        with_mbox = self.radius_km(self.added_latency_percentile_ns(TAIL_PERCENTILE))
        return (baseline - with_mbox) / baseline

    def cpu_overhead_fraction(self) -> float:
        """Middlebox cores as a fraction of PHY cores (§5: ~10 %)."""
        return MBOX_CORES_PER_SERVER / PHY_CORES_PER_SERVER

    def nic_bandwidth_multiplier(self) -> float:
        """Per-server NIC bandwidth factor (every packet takes 2 hops)."""
        return 2.0
