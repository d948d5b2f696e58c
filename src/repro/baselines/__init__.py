"""Baselines the paper compares Slingshot against.

* :mod:`repro.baselines.vm_migration` — QEMU/KVM pre-copy live migration
  of a FlexRAN VM over TCP or RDMA (paper §2.4, Fig 3): the approach
  Slingshot's PHY migration replaces.
* :mod:`repro.baselines.software_mbox` — a DPDK software implementation
  of the fronthaul middlebox (the alternative §5 argues against): extra
  fronthaul latency, halved coverage-radius headroom, dedicated cores,
  and doubled NIC bandwidth.
* The no-Slingshot full-stack failover baseline of §8.1 lives in
  :func:`repro.cell.deployment.build_baseline_cell`.
"""

from repro.baselines.vm_migration import (
    PrecopyMigrationModel,
    MigrationRun,
    TransportKind,
)
from repro.baselines.software_mbox import SoftwareMiddleboxModel

__all__ = [
    "PrecopyMigrationModel",
    "MigrationRun",
    "TransportKind",
    "SoftwareMiddleboxModel",
]
