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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.apps.iperf import UdpIperfDownlink
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.net.p4.resources import PipelineResourceModel
from repro.net.packet import EtherType
from repro.sim.units import US, seconds


@dataclass
class SwitchResult:
    #: Resource name -> percent of the pipeline used (256-RU config).
    resource_percent: Dict[str, float]
    #: SRAM percentages at growing deployment sizes (only SRAM scales).
    sram_scaling: Dict[int, float]
    max_gap_idle_us: float
    max_gap_busy_us: float
    detector_timeout_us: float

    @property
    def max_gap_us(self) -> float:
        return max(self.max_gap_idle_us, self.max_gap_busy_us)


def _measure_max_gap(busy: bool, duration_s: float, seed: int) -> float:
    """Timestamp the primary PHY's downlink packets at the switch and
    compute the maximum inter-packet gap (the paper's P4 timestamping
    mirror, §8.6)."""
    config = CellConfig(
        seed=seed,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )
    cell = build_slingshot_cell(config)
    timestamps: List[int] = []
    detector = cell.middlebox.detector
    original = detector.on_heartbeat

    def tap(phy_id: int, now_ns: Optional[int] = None) -> None:
        if phy_id == 0:
            timestamps.append(cell.sim.now)
        original(phy_id, now_ns)

    detector.on_heartbeat = tap
    if busy:
        flow = UdpIperfDownlink(
            cell.sim, cell.server, cell.ue(1), "dl", bearer_id=1, bitrate_bps=60e6
        )
        cell.run_for(seconds(0.2))
        flow.start()
    cell.run_for(seconds(duration_s))
    stamps = np.array(timestamps[10:], dtype=np.int64)
    if len(stamps) < 2:
        return 0.0
    return float(np.diff(stamps).max()) / US


def run(
    num_rus: int = 256,
    num_phys: int = 256,
    gap_duration_s: float = 3.0,
    seed: int = 0,
) -> SwitchResult:
    """Compute resource usage and measure the healthy inter-packet gap."""
    model = PipelineResourceModel()
    usage = model.usage(num_rus, num_phys)
    sram_scaling = {
        n: model.usage(n, n).percent("sram_bits") for n in (64, 128, 256, 512, 1024)
    }
    return SwitchResult(
        resource_percent={
            name: usage.percent(name) for name in usage.fraction
        },
        sram_scaling=sram_scaling,
        max_gap_idle_us=_measure_max_gap(False, gap_duration_s, seed),
        max_gap_busy_us=_measure_max_gap(True, gap_duration_s, seed + 1),
        detector_timeout_us=450.0,
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
        f"  max healthy inter-packet gap: idle {result.max_gap_idle_us:.0f} us, "
        f"busy {result.max_gap_busy_us:.0f} us (paper: 393 us) "
        f"< timeout {result.detector_timeout_us:.0f} us"
    )
    return "\n".join(lines)
