"""Programmable-switch (P4/Tofino-style) data-plane model.

Slingshot's fronthaul middlebox and failure detector are written as a P4
program plus a Python control plane (paper §7). This package models the
primitives that program uses:

* :class:`~repro.net.p4.tables.MatchActionTable` — exact-match tables
  installed from the control plane at bring-up (a rule update takes tens
  of ms, which is *why* migration must happen in the data plane).
* :class:`~repro.net.p4.registers.RegisterArray` — data-plane-updatable
  state (the RU-to-PHY mapping, migration request store, and
  failure-detector counters).
* The built-in packet generator's timer-tick stream has no class here:
  :mod:`repro.core.failure_detector` evaluates it arithmetically.
* :mod:`~repro.net.p4.resources` — switch ASIC resource accounting for the
  §8.6 resource-usage table.
"""

from repro.net.p4.tables import MatchActionTable, TableEntry
from repro.net.p4.registers import RegisterArray
from repro.net.p4.resources import PipelineResourceModel, ResourceUsage

__all__ = [
    "MatchActionTable",
    "TableEntry",
    "RegisterArray",
    "PipelineResourceModel",
    "ResourceUsage",
]
