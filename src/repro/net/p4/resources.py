"""Switch ASIC resource accounting (paper §8.6).

The paper reports the fraction of each Tofino pipeline resource used by
Slingshot's data plane for a 256-RU / 256-PHY-server configuration:
crossbar 5.2 %, ALU 10.4 %, gateway 14.1 %, SRAM 5.3 %, hash bits 9.5 % —
and notes that scaling the RU/PHY count grows only SRAM usage.

This module provides an analytic model: per-resource totals for a
Tofino-class pipeline and per-component costs for Slingshot's tables,
registers, and detector logic, calibrated so the 256-RU configuration
reproduces the paper's percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


#: Total resource budgets for one Tofino-class pipeline (abstract units for
#: combinational resources; bits for SRAM/hash). These are model totals, not
#: vendor data: the per-component costs below are expressed against them.
PIPELINE_TOTALS: Dict[str, float] = {
    "crossbar": 1_536.0,        # input crossbar bytes across stages
    "alu": 48.0,                # stateful/stateless ALUs
    "gateway": 192.0,           # gateway (conditional) units
    "sram_bits": 120e6,         # ~15 MB SRAM
    "hash_bits": 4_992.0,       # hash distribution bits
}

#: Fixed cost of the Slingshot program independent of the RU count: header
#: parsing (eCPRI + O-RAN section headers + Slingshot command packets),
#: timer-packet handling, the migrate_on_slot comparison logic, and the
#: failure-notification reformatting.
_FIXED_COSTS: Dict[str, float] = {
    "crossbar": 78.0,
    "alu": 4.95,
    "gateway": 27.0,
    "sram_bits": 1.2e6,
    "hash_bits": 470.0,
}

#: Per-RU/PHY-pair marginal costs. Only SRAM grows meaningfully with scale
#: (the ID/address directories and per-RU/PHY register cells); match
#: crossbars, ALUs, gateways, and hash bits are allocated per-program,
#: not per-entry, so their costs are (almost entirely) fixed.
_PER_ENTRY_COSTS: Dict[str, float] = {
    "crossbar": 0.008,
    "alu": 0.0002,
    "gateway": 0.0008,
    "sram_bits": 20_150.0,
    "hash_bits": 0.015,
}


@dataclass(frozen=True)
class ResourceUsage:
    """Resource usage of the Slingshot pipeline, absolute and fractional."""

    absolute: Dict[str, float] = field(default_factory=dict)
    fraction: Dict[str, float] = field(default_factory=dict)

    def percent(self, resource: str) -> float:
        """Usage of one resource as a percentage of the pipeline total."""
        return 100.0 * self.fraction[resource]


class PipelineResourceModel:
    """Analytic resource model for Slingshot's switch data plane."""

    def usage(self, num_rus: int, num_phys: int) -> ResourceUsage:
        """Resource usage for a deployment of ``num_rus`` RUs / ``num_phys`` PHYs.

        Directory tables and register arrays are sized for
        ``max(num_rus, num_phys)`` entries each.
        """
        if num_rus <= 0 or num_phys <= 0:
            raise ValueError("deployment must have at least one RU and one PHY")
        entries = max(num_rus, num_phys)
        absolute: Dict[str, float] = {}
        fraction: Dict[str, float] = {}
        for resource, total in PIPELINE_TOTALS.items():
            used = _FIXED_COSTS[resource] + entries * _PER_ENTRY_COSTS[resource]
            absolute[resource] = used
            fraction[resource] = used / total
        return ResourceUsage(absolute=absolute, fraction=fraction)
