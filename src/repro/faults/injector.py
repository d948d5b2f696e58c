"""Executes a :class:`~repro.faults.plan.FaultPlan` against a built cell.

The injector is purely a scheduler: at arm() time it attaches
:class:`~repro.faults.link_faults.LinkImpairment` hooks to every switch
link whose name matches a spec, and schedules the process/clock fault
transitions as ordinary simulator events. All randomness is drawn from
``faults.*`` registry streams (slinglint STREAM003), so a plan replays
bit-identically for a given cell seed.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.faults.link_faults import LinkImpairment
from repro.faults.plan import ClockFaultSpec, FaultPlan, ProcessFaultSpec, invalid_spec
from repro.net.link import Link


class FaultInjector:
    """Arms one plan against one cell (Slingshot or baseline)."""

    def __init__(self, cell, plan: FaultPlan) -> None:
        self.cell = cell
        self.plan = plan
        #: Link name -> attached impairment (for stats inspection).
        self.impairments: Dict[str, LinkImpairment] = {}
        self._armed = False

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Attach hooks and schedule every fault transition."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._refuse_what_this_cell_lacks()
        self._armed = True
        for link in self._switch_links():
            specs = tuple(
                s for s in self.plan.link_faults if s.link_pattern in link.name
            )
            if not specs:
                continue
            impairment = LinkImpairment(
                specs,
                self.cell.rng.stream(f"faults.link.{link.name}"),
                trace=self.cell.trace,
            )
            link.impairment = impairment
            self.impairments[link.name] = impairment
        for spec in self.plan.process_faults:
            self._arm_process_fault(spec)
        for spec in self.plan.clock_faults:
            self._arm_clock_fault(spec)

    def _refuse_what_this_cell_lacks(self) -> None:
        """Before anything is attached or scheduled: every link pattern
        matches a switch link, every ``phy_id`` names a server, every
        clock ``node`` names a clock — else one ``ValueError``, not a
        scenario that "passes" with nothing armed or a traceback at the
        fault instant."""
        links = [link.name for link in self._switch_links()]
        for spec in self.plan.link_faults:
            if not any(spec.link_pattern in name for name in links):
                raise invalid_spec(spec, "link_pattern matches no switch link")
        for spec in self.plan.process_faults:
            servers = len(self.cell.phy_servers)
            if spec.phy_id >= servers:
                raise invalid_spec(
                    spec, f"phy_id {spec.phy_id} but the cell has {servers} PHY servers"
                )
        for spec in self.plan.clock_faults:
            if spec.node not in self.cell.ptp_clocks:
                raise invalid_spec(
                    spec, f"unknown clock node; known: {sorted(self.cell.ptp_clocks)}"
                )

    def _switch_links(self) -> Iterator[Link]:
        switch = self.cell.switch
        for number in switch.port_numbers():
            port = switch.port(number)
            ingress = getattr(port, "ingress_link", None)
            if ingress is not None:
                yield ingress
            if port.egress is not None:
                yield port.egress

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------
    def _arm_process_fault(self, spec: ProcessFaultSpec) -> None:
        sim = self.cell.sim
        phy = self.cell.phy_servers[spec.phy_id].phy
        if spec.kind == "crash":
            sim.at(spec.at_ns, phy.crash, "chaos", label="fault.crash")
        elif spec.kind == "crash_restart":
            sim.at(spec.at_ns, phy.crash, "chaos", label="fault.crash")
            sim.at(
                spec.at_ns + spec.duration_ns,
                self._revive_phy,
                spec.phy_id,
                spec.reinit_secondary,
                label="fault.restart",
            )
        elif spec.kind == "hang":
            sim.at(spec.at_ns, phy.hang, "chaos", label="fault.hang")
            if spec.duration_ns:
                sim.at(
                    spec.at_ns + spec.duration_ns, phy.unhang, label="fault.unhang"
                )
        elif spec.kind == "slowdown":
            sim.at(
                spec.at_ns,
                self._set_inflation,
                spec.phy_id,
                spec.slowdown_ns,
                label="fault.slowdown",
            )
            if spec.duration_ns:
                sim.at(
                    spec.at_ns + spec.duration_ns,
                    self._set_inflation,
                    spec.phy_id,
                    0,
                    label="fault.slowdown-end",
                )

    def _set_inflation(self, phy_id: int, inflation_ns: int) -> None:
        phy = self.cell.phy_servers[phy_id].phy
        phy.service_inflation_ns = inflation_ns
        if self.cell.trace is not None:
            self.cell.trace.record(
                self.cell.sim.now,
                "fault.slowdown",
                phy=phy_id,
                inflation_ns=inflation_ns,
            )

    def _revive_phy(self, phy_id: int, reinit_secondary: bool) -> None:
        """Operator revival: restart the process and (optionally) stand
        it back up as hot standby for every cell that lost its own."""
        phy = self.cell.phy_servers[phy_id].phy
        phy.restart()
        if not reinit_secondary:
            return
        l2_orion = getattr(self.cell, "l2_orion", None)
        if l2_orion is None:
            return
        for cell_id in sorted(l2_orion.cells):
            assignment = l2_orion.cells[cell_id]
            if assignment.secondary_phy is not None:
                continue
            if assignment.primary_phy == phy_id:
                continue
            # The operator explicitly clears the server's failure record.
            assignment.failed_phys.discard(phy_id)
            l2_orion.initialize_secondary(cell_id, phy_id)

    # ------------------------------------------------------------------
    # Clock faults
    # ------------------------------------------------------------------
    def _arm_clock_fault(self, spec: ClockFaultSpec) -> None:
        sim = self.cell.sim
        sim.at(spec.at_ns, self._apply_clock_fault, spec, label="fault.clock")
        if spec.holdover and spec.duration_ns:
            sim.at(
                spec.at_ns + spec.duration_ns,
                self._end_holdover,
                spec,
                label="fault.clock-resync",
            )

    def _apply_clock_fault(self, spec: ClockFaultSpec) -> None:
        clock = self.cell.ptp_clocks[spec.node]
        now = self.cell.sim.now
        if spec.step_ns:
            clock.apply_step(now, spec.step_ns)
        if spec.drift_ppm is not None:
            clock.set_drift_ppm(now, spec.drift_ppm)
        if spec.holdover:
            clock.set_disciplined(now, False)
        if self.cell.trace is not None:
            self.cell.trace.record(
                now,
                "fault.clock",
                node=spec.node,
                step_ns=spec.step_ns,
                drift_ppm=spec.drift_ppm,
                holdover=spec.holdover,
            )

    def _end_holdover(self, spec: ClockFaultSpec) -> None:
        clock = self.cell.ptp_clocks[spec.node]
        clock.set_disciplined(self.cell.sim.now, True)
