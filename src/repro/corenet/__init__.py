"""5G core network + application server substrate.

The core has no realtime deadlines (paper §2.2); it anchors user-plane
traffic between the L2 and the application server and runs the UE attach
procedure. The attach procedure's duration is what turns a vRAN failure
into a ~6.2 s outage in the no-Slingshot baseline (§8.1): re-establishing
a broken connection with the core dominates the downtime.
"""

from repro.corenet.core import CoreNetwork
from repro.corenet.server import AppServer

__all__ = ["CoreNetwork", "AppServer"]
