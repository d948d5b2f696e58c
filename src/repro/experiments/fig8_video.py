"""Fig 8 — video-conferencing bitrate through a PHY failure.

Paper result: streaming 500 kb/s video to a UE and SIGKILLing the
primary PHY in the third second, the no-Slingshot baseline (hot backup
vRAN + fronthaul re-route) leaves the UE disconnected for ~6.2 s with
zero bitrate, while Slingshot keeps the bitrate steady throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.video import VideoReceiver, VideoSender
from repro.cell.config import CellConfig
from repro.cell.deployment import build_baseline_cell, build_slingshot_cell
from repro.sim.units import SECOND, s_to_ns, seconds


@dataclass
class VideoScenarioResult:
    """Per-interval bitrate series for one scenario."""

    label: str
    #: (interval start s, kb/s) samples.
    bitrate_kbps: List[Tuple[float, float]]
    outage_seconds: float
    rlf_events: int


@dataclass
class Fig8Result:
    no_failure: VideoScenarioResult
    failure_without_slingshot: VideoScenarioResult
    failure_with_slingshot: VideoScenarioResult


def _run_scenario(
    label: str,
    slingshot: bool,
    inject_failure: bool,
    duration_s: float,
    failure_at_s: float,
    bitrate_bps: float,
    seed: int,
) -> VideoScenarioResult:
    config = CellConfig(seed=seed)
    cell = build_slingshot_cell(config) if slingshot else build_baseline_cell(config)
    ue = cell.ue(1)
    sender = VideoSender(
        cell.sim,
        cell.server,
        ue_id=ue.ue_id,
        flow_id="video",
        bearer_id=1,
        bitrate_bps=bitrate_bps,
        rng=cell.rng.stream("app.video.video"),
    )
    receiver = VideoReceiver(cell.sim, ue, flow_id="video")
    # Let the cell settle before streaming.
    cell.run_for(seconds(0.2))
    sender.start()
    if inject_failure:
        cell.kill_phy_at(0, s_to_ns(failure_at_s))
    cell.run_until(seconds(duration_s))
    series = receiver.bitrate_series_kbps(s_to_ns(0.5), s_to_ns(duration_s))
    return VideoScenarioResult(
        label=label,
        bitrate_kbps=series,
        outage_seconds=receiver.outage_seconds(s_to_ns(0.5), s_to_ns(duration_s)),
        rlf_events=ue.stats.rlf_events,
    )


def run(
    duration_s: float = 12.0,
    failure_at_s: float = 2.6,
    bitrate_bps: float = 500_000.0,
    seed: int = 0,
) -> Fig8Result:
    """Run the three scenarios of Fig 8."""
    return Fig8Result(
        no_failure=_run_scenario(
            "No failure", True, False, duration_s, failure_at_s, bitrate_bps, seed
        ),
        failure_without_slingshot=_run_scenario(
            "Failure w/o Slingshot", False, True, duration_s, failure_at_s,
            bitrate_bps, seed + 1,
        ),
        failure_with_slingshot=_run_scenario(
            "Failure w/ Slingshot", True, True, duration_s, failure_at_s,
            bitrate_bps, seed + 2,
        ),
    )


def summarize(result: Fig8Result) -> str:
    lines = ["Fig 8 — downlink video bitrate across a PHY failure"]
    for scenario in (
        result.no_failure,
        result.failure_without_slingshot,
        result.failure_with_slingshot,
    ):
        rates = [kbps for _, kbps in scenario.bitrate_kbps]
        mean = sum(rates) / max(len(rates), 1)
        lines.append(
            f"  {scenario.label:24s}: mean {mean:6.0f} kbps, "
            f"outage {scenario.outage_seconds:4.1f} s, RLFs {scenario.rlf_events}"
        )
    lines.append(
        "  paper: baseline outage 6.2 s (UE reattach); Slingshot outage 0 s"
    )
    return "\n".join(lines)
