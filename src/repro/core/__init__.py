"""Slingshot — the paper's contribution.

Three cooperating components provide a "resilient PHY" abstraction to the
RU below and the L2 above, with no modification to either:

* :mod:`repro.core.fh_middlebox` — the in-switch fronthaul middlebox:
  virtual PHY addresses, the indirect RU-to-PHY mapping in data-plane
  registers, TTI-boundary-aligned `migrate_on_slot` execution, and
  downlink filtering of standby PHYs (paper §5).
* :mod:`repro.core.failure_detector` — in-switch failure detection using
  per-TTI downlink fronthaul packets as natural heartbeats, with
  packet-generator timer ticks and per-PHY saturating counters (§5.2).
* :mod:`repro.core.orion` — the software FAPI middlebox: decouples
  L2 and PHY over a lean stateless transport, keeps hot-standby
  secondaries alive with null FAPI requests, filters their responses,
  and orchestrates migration end to end (§6).
* :mod:`repro.core.migration` — cluster configuration and the planned
  migration / live-upgrade controller built on the above.
"""

from repro.core.commands import (
    MigrateOnSlot,
    FailureNotification,
    SetMonitor,
    SLINGSHOT_CMD_BYTES,
)
from repro.core.failure_detector import FailureDetector, DetectorConfig
from repro.core.fh_middlebox import FronthaulMiddlebox, MiddleboxConfig
from repro.core.orion import (
    L2SideOrion,
    PhySideOrion,
    OrionDatagram,
    CellAssignment,
)
from repro.core.migration import MigrationController, Cluster, PhyServer

__all__ = [
    "MigrateOnSlot",
    "FailureNotification",
    "SetMonitor",
    "SLINGSHOT_CMD_BYTES",
    "FailureDetector",
    "DetectorConfig",
    "FronthaulMiddlebox",
    "MiddleboxConfig",
    "L2SideOrion",
    "PhySideOrion",
    "OrionDatagram",
    "CellAssignment",
    "MigrationController",
    "Cluster",
    "PhyServer",
]
