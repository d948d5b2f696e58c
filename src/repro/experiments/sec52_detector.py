"""§5.2 — in-switch failure detection microbenchmark.

Paper parameters: timeout T = 450 µs (chosen above the measured 393 µs
maximum healthy inter-packet gap), n = 50 timer ticks per timeout →
9 µs detection precision at ~50 k internal packets/second. Detection of
a SIGKILLed PHY therefore completes within roughly one TTI.

This harness measures, across repeated failovers at random slot phases:
the detection latency distribution, and that a healthy run produces no
false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.core.failure_detector import DetectorConfig
from repro.experiments.sweep import sweep_trials
from repro.sim.units import MS, SECOND, US, ns_to_us, run_for_ns, s_to_ns, seconds


@dataclass
class DetectorResult:
    detection_latencies_us: List[float]
    false_positives: int
    timeout_us: float
    precision_us: float
    pktgen_rate_pps: float

    def median_us(self) -> float:
        return float(np.median(self.detection_latencies_us))

    def max_us(self) -> float:
        return float(np.max(self.detection_latencies_us))


def _detection_trial_shard(
    payload: Tuple[int, int, int, Optional[DetectorConfig]],
) -> Optional[float]:
    """One kill trial: fresh cell from its seed, returns latency in µs.

    Shard worker: everything — including the kill offset the serial
    loop used to draw inline — arrives in the payload, so the result is
    identical whether this runs inline or in a pool worker
    (``tests/test_parallel.py`` pins serial against ``--jobs`` 1/2/4).
    """
    seed, trial, offset_us, detector = payload
    config = CellConfig(
        seed=seed + trial,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )
    cell = build_slingshot_cell(config)
    if detector is not None:
        cell.middlebox.reconfigure_detector(detector)
        cell.sim.schedule(
            6 * cell.slot_ns, cell.middlebox.detector.set_monitor, 0, True
        )
    kill_at = s_to_ns(0.5) + offset_us * US
    cell.kill_phy_at(0, kill_at)
    run_for_ns(cell, seconds(0.8))
    detected = cell.trace.last("mbox.failure_detected")
    if detected is None:
        return None
    return ns_to_us(detected.time - kill_at)


def run(
    trials: int = 8,
    healthy_seconds: float = 2.0,
    seed: int = 0,
    detector: Optional[DetectorConfig] = None,
    jobs: int = 1,
) -> DetectorResult:
    """Measure detection latency over repeated kill trials.

    Each trial uses a fresh cell, kills the primary at a pseudo-random
    offset within a slot, and reads the switch's detection timestamp
    from the trace. ``jobs > 1`` shards the trials over worker
    processes with results identical to the serial loop: the per-trial
    kill offsets are drawn up front in serial order and shipped inside
    the shard payloads.
    """
    rng = np.random.default_rng(seed)
    cfg = detector or DetectorConfig()
    payloads = [
        (seed, trial, int(rng.integers(0, 500)), detector)
        for trial in range(trials)
    ]
    values, _outcome = sweep_trials(
        _detection_trial_shard, payloads, jobs=jobs, label="sec52"
    )
    latencies: List[float] = [value for value in values if value is not None]
    # False-positive check: a healthy cell must never trigger detection.
    config = CellConfig(seed=seed + 1000)
    healthy = build_slingshot_cell(config)
    run_for_ns(healthy, seconds(healthy_seconds))
    false_positives = healthy.trace.count("mbox.failure_detected")
    return DetectorResult(
        detection_latencies_us=latencies,
        false_positives=false_positives,
        timeout_us=cfg.timeout_ns / US,
        precision_us=cfg.precision_ns / US,
        pktgen_rate_pps=cfg.pktgen_rate_pps,
    )


def summarize(result: DetectorResult) -> str:
    lines = ["§5.2 — in-switch failure detector"]
    lines.append(
        f"  T = {result.timeout_us:.0f} us, precision = {result.precision_us:.0f} us, "
        f"pktgen {result.pktgen_rate_pps / 1e3:.0f} kpps per monitored PHY"
    )
    if result.detection_latencies_us:
        lines.append(
            f"  detection latency: median {result.median_us():.0f} us, "
            f"max {result.max_us():.0f} us over {len(result.detection_latencies_us)} kills"
        )
    lines.append(
        f"  false positives over healthy run: {result.false_positives} "
        f"(max healthy gap ~390 us < T)"
    )
    return "\n".join(lines)
