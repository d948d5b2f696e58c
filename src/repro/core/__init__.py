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
  and orchestrates migration end to end (§6). It also stands up a new
  standby by replaying a cell's stored initialization (§6.3); the
  cell's ``planned_migration`` and ``live_upgrade`` call it directly.
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
]
