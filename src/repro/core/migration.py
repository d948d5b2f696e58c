"""The PHY-server cluster and the migration/upgrade controller.

Planned migrations and live upgrades (paper §8.3) are operator-initiated;
this module provides the thin management layer the paper attributes to
"Orion's management thread": knowing which PHY servers exist, choosing
primary/secondary placements, and sequencing upgrades (migrate traffic
off a server, upgrade it, optionally migrate back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.orion import L2SideOrion
from repro.net.addresses import MacAddress
from repro.phy.process import PhyProcess
from repro.sim.trace import TraceRecorder

#: Whether :meth:`MigrationController.replace_failed_secondary` may also
#: restart a crashed-but-repaired spare (an operator's call; off, so a
#: crashed server is never revived automatically).
RESTART_CRASHED_SPARES = False


@dataclass
class PhyServer:
    """One vRAN server able to host PHY processing."""

    phy_id: int
    phy: PhyProcess
    orion_mac: MacAddress


@dataclass
class Cluster:
    """The deployment's PHY servers."""

    servers: Dict[int, PhyServer] = field(default_factory=dict)

    def add_server(self, server: PhyServer) -> None:
        self.servers[server.phy_id] = server

    def server(self, phy_id: int) -> PhyServer:
        return self.servers[phy_id]

    def spare_servers(self, exclude: List[int]) -> List[int]:
        """Server ids not in ``exclude`` (candidates for new secondaries)."""
        return sorted(pid for pid in self.servers if pid not in exclude)


class MigrationController:
    """Sequences planned migrations and live PHY upgrades."""

    def __init__(
        self,
        orion: L2SideOrion,
        cluster: Cluster,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.orion = orion
        self.cluster = cluster
        self.trace = trace

    def planned_migration(self, cell_id: int) -> int:
        """Move a cell's PHY processing to its secondary; returns boundary slot."""
        return self.orion.planned_migration(cell_id)

    def live_upgrade(self, cell_id: int, new_decoder_iterations: int) -> int:
        """Zero-downtime PHY upgrade (paper §8.3).

        The secondary server is restarted with the upgraded PHY software
        (modeled as a higher decoder-iteration budget), re-initialized for
        the cell, and traffic is migrated onto it at a TTI boundary. The
        old primary remains as the new standby, ready for the next
        upgrade wave.
        """
        assignment = self.orion.cells[cell_id]
        secondary_id = assignment.secondary_phy
        if secondary_id is None:
            raise RuntimeError(f"cell {cell_id} has no secondary to upgrade onto")
        server = self.cluster.server(secondary_id)
        # Upgrade the standby: restart its PHY process with the new build.
        server.phy.crash(reason="upgrade restart")
        server.phy.restart(decoder_iterations=new_decoder_iterations)
        # Replay the stored initialization so it re-hosts the cell.
        self.orion.initialize_secondary(cell_id, secondary_id)
        if self.trace is not None:
            self.trace.record(
                self.orion.sim.now,
                "controller.upgrade",
                cell=cell_id,
                phy=secondary_id,
                decoder_iterations=new_decoder_iterations,
            )
        # Give the freshly started standby a few slots of null FAPI before
        # migrating onto it.
        return self.orion.planned_migration(cell_id)

    def replace_failed_secondary(self, cell_id: int) -> Optional[int]:
        """After a failover, stand up a new secondary on a spare server.

        Placement policy: prefer live spares; servers that previously
        failed while serving this cell are never chosen automatically
        (the fault may recur). With :data:`RESTART_CRASHED_SPARES` an
        operator additionally offers crashed-but-repaired spares, which
        are restarted before re-initialization.
        """
        assignment = self.orion.cells[cell_id]
        in_use = [assignment.primary_phy]
        if assignment.secondary_phy is not None:
            in_use.append(assignment.secondary_phy)
        candidates = [
            phy_id
            for phy_id in self.cluster.spare_servers(exclude=in_use)
            if phy_id not in assignment.failed_phys
        ]
        alive = [p for p in candidates if self.cluster.server(p).phy.alive]
        chosen: Optional[int] = None
        if alive:
            chosen = alive[0]
        elif RESTART_CRASHED_SPARES and candidates:
            chosen = candidates[0]
        if chosen is None:
            return None
        server = self.cluster.server(chosen)
        if not server.phy.alive:
            server.phy.restart()
        self.orion.initialize_secondary(cell_id, chosen)
        return chosen
