"""Fig 12 — one-way latency added by Orion vs downlink load.

Paper result: Orion's FAPI transformations and SHM-to-UDP relay add
under 200 µs one-way even at 3.4 Gb/s of downlink user traffic
(generated with FlexRAN's test MAC) — comfortably within the one-TTI
(500 µs) budget FlexRAN allots to FAPI transfer for a slot.

This harness drives the Orion service-queue model directly with the
paper's load points: per-slot DL_TTI + TX_DATA messages sized for the
offered bitrate, plus the per-slot control chatter, measuring the
one-way L2-to-PHY latency (both Orion hops plus the wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.orion import _ServiceQueue
from repro.fapi.messages import DlTtiRequest, PdschPdu, TxDataRequest, UlTtiRequest
from repro.fapi.codec import wire_size
from repro.phy.modulation import Modulation
from repro.sim.engine import Simulator
from repro.sim.units import MS, SECOND, US, ns_to_us

#: The paper's load points (labels match Fig 12's x axis).
LOAD_POINTS_BPS: List[Tuple[str, float]] = [
    ("Idle", 0.0),
    ("100 Mbps", 100e6),
    ("1.1 Gbps", 1.1e9),
    ("2.8 Gbps", 2.8e9),
    ("3.4 Gbps", 3.4e9),
]


@dataclass
class LoadPointResult:
    label: str
    offered_bps: float
    median_us: float
    p99_us: float
    p99999_us: float
    samples: int


@dataclass
class Fig12Result:
    points: List[LoadPointResult]

    def max_added_latency_us(self) -> float:
        return max(p.p99999_us for p in self.points)


def _measure_load_point(
    label: str,
    offered_bps: float,
    duration_s: float,
    seed: int,
) -> LoadPointResult:
    """One load point: replay the L2's per-slot message pattern through
    the L2-side and PHY-side Orion service queues plus the wire."""
    sim = Simulator()
    l2_side = _ServiceQueue(sim, "l2-orion")
    phy_side = _ServiceQueue(sim, "phy-orion")
    rng = np.random.default_rng(seed)
    slot_ns = 500 * US
    wire_ns = 1_300  # switch hop + 100 GbE propagation
    slots = int(duration_s * SECOND / slot_ns)
    latencies: List[int] = []
    # Bytes of user payload per downlink slot at the offered load (3 of 5
    # TDD slots carry downlink).
    dl_payload_per_slot = offered_bps / 8.0 * (slot_ns / SECOND) * (5.0 / 3.0)

    def send_one(created: int, size: int) -> None:
        def after_l2() -> None:
            arrive_phy = sim.now + wire_ns
            sim.at(
                arrive_phy,
                lambda: phy_side.submit(
                    size, lambda: latencies.append(sim.now - created)
                ),
            )

        l2_side.submit(size, after_l2)

    for slot in range(slots):
        slot_start = slot * slot_ns
        is_dl = (slot % 5) < 3
        # Per-slot TTI requests always flow.
        tti = DlTtiRequest(cell_id=0, slot=slot, pdus=[])
        base_size = wire_size(tti) + 46
        jitter = int(rng.integers(0, 20_000))
        sim.at(slot_start + jitter, send_one, slot_start + jitter, base_size)
        if is_dl and dl_payload_per_slot > 0:
            # TX_DATA: jumbo-frame chunks of the slot's user payload, as
            # FlexRAN's test MAC generates them. The chunk count per slot
            # is capped; byte volume (which drives the service model) is
            # preserved by growing the chunk size.
            remaining = dl_payload_per_slot * float(rng.uniform(0.9, 1.1))
            chunk = max(9000.0, remaining / 24.0)
            offset = 30_000
            while remaining >= 1.0:
                size = max(1, int(min(remaining, chunk)))
                t = slot_start + jitter + offset
                sim.at(t, send_one, t, size + 60)
                remaining -= size
                offset += 2_000
    sim.run()
    lat = np.array(latencies, dtype=np.float64)
    return LoadPointResult(
        label=label,
        offered_bps=offered_bps,
        median_us=float(np.percentile(lat, 50)) / 1e3,
        p99_us=float(np.percentile(lat, 99)) / 1e3,
        p99999_us=float(np.percentile(lat, 99.999)) / 1e3,
        samples=len(lat),
    )


def run(duration_s: float = 1.0, seed: int = 0) -> Fig12Result:
    """Measure Orion's added one-way latency at all Fig 12 load points."""
    return Fig12Result(
        points=[
            _measure_load_point(label, bps, duration_s, seed + i)
            for i, (label, bps) in enumerate(LOAD_POINTS_BPS)
        ]
    )


def summarize(result: Fig12Result) -> str:
    lines = ["Fig 12 — one-way latency added by Orion vs downlink load"]
    for p in result.points:
        lines.append(
            f"  {p.label:9s}: median {p.median_us:6.1f} us, "
            f"p99 {p.p99_us:6.1f} us, p99.999 {p.p99999_us:6.1f} us "
            f"({p.samples} msgs)"
        )
    lines.append(
        f"  max p99.999 {result.max_added_latency_us():.0f} us "
        f"(paper: < 200 us, within the 500 us TTI budget)"
    )
    return "\n".join(lines)
