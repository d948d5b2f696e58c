"""§8.6 — switch resource usage and healthy inter-packet gap.

Paper results:

* For a 256-RU / 256-server configuration, Slingshot's data plane uses
  a small slice of each pipeline resource: crossbar 5.2 %, ALU 10.4 %,
  gateway 14.1 %, SRAM 5.3 %, hash bits 9.5 %; only SRAM grows with
  the RU count.
* The maximum inter-packet gap between a healthy PHY's downlink
  fronthaul packets, measured with nanosecond switch timestamps across
  idle and busy periods, is 393 µs — motivating the conservative
  450 µs detector timeout.

Here the gap is not sampled but derived from the PHY's transmit
schedule (:func:`repro.phy.process.downlink_schedule`); tier-1 checks
it against the heartbeats of §5.2's healthy run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.failure_detector import DetectorConfig
from repro.net.p4.resources import PipelineResourceModel
from repro.phy.process import downlink_schedule
from repro.sim.units import US


@dataclass
class SwitchResult:
    #: Resource name -> percent of the pipeline used (256-RU config).
    resource_percent: Dict[str, float]
    #: SRAM percentages at growing deployment sizes (only SRAM scales).
    sram_scaling: Dict[int, float]
    #: The default PHY's maximum healthy gap between downlink frames.
    max_gap_us: float
    detector_timeout_us: float


def run(num_rus: int = 256, num_phys: int = 256) -> SwitchResult:
    """Compute resource usage and derive the healthy inter-packet gap."""
    model = PipelineResourceModel()
    usage = model.usage(num_rus, num_phys)
    sram_scaling = {
        n: model.usage(n, n).percent("sram_bits") for n in (64, 128, 256, 512, 1024)
    }
    schedule = downlink_schedule()
    return SwitchResult(
        resource_percent={
            name: usage.percent(name) for name in usage.fraction
        },
        sram_scaling=sram_scaling,
        max_gap_us=schedule.max_gap_ns / US,
        detector_timeout_us=DetectorConfig().timeout_ns / US,
    )


def summarize(result: SwitchResult) -> str:
    paper = {
        "crossbar": 5.2,
        "alu": 10.4,
        "gateway": 14.1,
        "sram_bits": 5.3,
        "hash_bits": 9.5,
    }
    lines = ["§8.6 — switch ASIC resources (256 RUs / 256 PHYs) and packet gaps"]
    for name, percent in result.resource_percent.items():
        lines.append(
            f"  {name:10s}: {percent:5.1f} %   (paper: {paper.get(name, 0.0):.1f} %)"
        )
    scaling = ", ".join(f"{n}:{p:.1f}%" for n, p in result.sram_scaling.items())
    lines.append(f"  SRAM scaling with deployment size: {scaling}")
    lines.append(
        f"  max healthy inter-packet gap: {result.max_gap_us:.0f} us derived from "
        f"the PHY's transmit schedule (paper: 393 us measured) "
        f"< timeout {result.detector_timeout_us:.0f} us"
    )
    return "\n".join(lines)
