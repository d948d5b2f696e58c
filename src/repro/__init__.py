"""repro — a simulation-based reproduction of Slingshot (SIGCOMM 2023).

Slingshot provides resilient baseband (PHY) processing for virtualized
RANs: transparent PHY failover and zero-downtime upgrades built from an
in-switch fronthaul middlebox, an in-switch failure detector, and a
software FAPI middlebox (Orion) — with no changes to the vRAN software.

This package implements the full system and every substrate it depends
on (discrete-event simulator, 5G PHY signal processing, O-RAN fronthaul,
FAPI, L2 MAC/RLC, UEs, core network, transports, and applications), plus
the baselines and experiment harnesses that regenerate each figure and
table of the paper's evaluation. See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import build_slingshot_cell, seconds

    cell = build_slingshot_cell()
    cell.kill_phy_at(0, seconds(2.0))   # SIGKILL the primary PHY at t=2s
    cell.run_for(seconds(4.0))
    print(cell.middlebox.stats)          # failover executed in-switch
"""

from repro.cell import (
    BaselineCell,
    CellConfig,
    SlingshotCell,
    UeProfile,
    build_baseline_cell,
    build_slingshot_cell,
)
from repro.core import (
    FailureDetector,
    FronthaulMiddlebox,
    L2SideOrion,
    PhySideOrion,
)
from repro.sim import (
    Simulator,
    ns_to_ms,
    ns_to_s,
    ns_to_us,
    s_to_ns,
    seconds,
)

__version__ = "1.0.0"

__all__ = [
    "BaselineCell",
    "CellConfig",
    "SlingshotCell",
    "UeProfile",
    "build_baseline_cell",
    "build_slingshot_cell",
    "FailureDetector",
    "FronthaulMiddlebox",
    "L2SideOrion",
    "PhySideOrion",
    "Simulator",
    "ns_to_ms",
    "ns_to_s",
    "ns_to_us",
    "s_to_ns",
    "seconds",
    "__version__",
]
