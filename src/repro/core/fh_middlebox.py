"""The in-switch fronthaul middlebox (paper §5).

A :class:`FronthaulMiddlebox` is a switch pipeline (installable on
:class:`repro.net.switch.Switch`) implementing:

* **Virtual PHY addresses** — RUs address a virtual MAC; the pipeline
  resolves it through the indirection ``src MAC → RU ID → PHY ID →
  PHY MAC`` so the RU never learns which server serves it.
* **Indirect RU-to-PHY mapping** — the RU-to-PHY map is a data-plane
  register array indexed by small operator-assigned IDs, sidestepping
  the impossibility of data-plane-updatable MAC-to-MAC hash tables.
* **TTI-aligned migration** — `migrate_on_slot` commands are stored in
  a register-based request store; every fronthaul packet's slot fields
  are compared against pending requests, and the first matching packet
  flips the mapping — exactness the ~29 ms control-plane path cannot
  provide.
* **Downlink filtering** — C/U-plane packets from a PHY that is not the
  RU's active PHY for that slot are dropped (hot standbys stay
  invisible to the RU) while still refreshing the sender's liveness
  counter.
* **Failure detection** — per-PHY heartbeat counters driven by the
  packet generator (see :mod:`repro.core.failure_detector`); detection
  reformats the timer packet into a failure notification toward Orion.

Non-fronthaul traffic (Orion's UDP FAPI transport, app/core flows)
falls through to ordinary static L2 forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.commands import (
    SLINGSHOT_CMD_BYTES,
    FailureNotification,
    MigrateOnSlot,
    SetMonitor,
)
from repro.core.failure_detector import MAX_PHYS, FailureDetector
from repro.fronthaul.oran import (
    CplaneMessage,
    UplaneDownlink,
    UplaneUplink,
    UplaneUplinkControlOnly,
)
from repro.net.addresses import MacAddress
from repro.net.p4.registers import RegisterArray
from repro.net.p4.tables import MatchActionTable
from repro.net.packet import ETH_ECPRI, ETH_SLINGSHOT, EthernetFrame
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


#: A forwarding decision: the egress port and the frame to send there,
#: or None to drop the frame.
Forward = Optional[Tuple[int, EthernetFrame]]

#: RUs the pipeline's directories and per-RU registers hold (its PHY
#: directories hold the detector's ``MAX_PHYS``).
MAX_RUS = 256


@dataclass
class MiddleboxConfig:
    """Behaviour knobs for the pipeline."""

    #: Ablation switch: when False, migrate commands apply immediately
    #: instead of at the requested TTI boundary (protocol-violating).
    align_to_tti: bool = True


@dataclass
class MiddleboxStats:
    ul_steered: int = 0
    dl_forwarded: int = 0
    dl_filtered: int = 0
    migrations_executed: int = 0
    commands_received: int = 0
    duplicate_commands_ignored: int = 0
    notifications_sent: int = 0
    unknown_dropped: int = 0


class FronthaulMiddlebox:
    """Slingshot's switch data plane + its Python control-plane surface."""

    def __init__(
        self,
        sim: Simulator,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.config = MiddleboxConfig()
        self.trace = trace
        self.name = "fh-mbox"
        # --- Match-action tables (control-plane installed) -------------
        self.ru_id_directory = MatchActionTable(
            "ru_id_directory", MAX_RUS, key_bits=48, value_bits=8
        )
        self.phy_id_directory = MatchActionTable(
            "phy_id_directory", MAX_PHYS, key_bits=48, value_bits=8
        )
        self.phy_address_directory = MatchActionTable(
            "phy_address_directory", MAX_PHYS, key_bits=8, value_bits=48 + 9
        )
        self.ru_port_directory = MatchActionTable(
            "ru_port_directory", MAX_RUS, key_bits=8, value_bits=48 + 9
        )
        # --- Data-plane registers --------------------------------------
        self.ru_to_phy = RegisterArray("ru_to_phy", MAX_RUS, width_bits=8)
        self.mig_valid = RegisterArray("mig_valid", MAX_RUS, width_bits=1)
        self.mig_slot = RegisterArray("mig_slot", MAX_RUS, width_bits=32)
        self.mig_dest = RegisterArray("mig_dest", MAX_RUS, width_bits=8)
        # The previous PHY and the committed boundary: late packets for
        # pre-boundary slots must still resolve to the *old* PHY (the
        # "primary for TTIs <= i, secondary for > i" contract outlives
        # the register flip).
        self.prev_phy = RegisterArray("prev_phy", MAX_RUS, width_bits=8)
        self.last_boundary = RegisterArray("last_boundary", MAX_RUS, width_bits=32)
        # --- Failure detector -------------------------------------------
        self.detector = FailureDetector(notify=self._on_detected)
        self._switch: Optional[Switch] = None
        #: Where failure notifications are sent: (mac, port).
        self.notification_target: Optional[Tuple[MacAddress, int]] = None
        #: Fallback static L2 table for non-fronthaul traffic.
        self.l2_table: Dict[MacAddress, int] = {}
        self.stats = MiddleboxStats()
        #: Virtual PHY MAC each RU addresses (for documentation/testing;
        #: steering keys off the RU's source MAC, not this address).
        self.virtual_phy_mac = MacAddress(0x02_5A_5A_00_00_01)

    # ------------------------------------------------------------------
    # Bring-up (control plane, install-time)
    # ------------------------------------------------------------------
    def install_on(self, switch: Switch) -> None:
        """Install this pipeline on a switch and start the timer stream."""
        switch.pipeline = self
        self._switch = switch
        self.detector.start_grid(self.sim)

    def reconfigure_detector(self, detector_config) -> None:
        """Swap the failure-detector parameters (its timeout).

        Re-programs the packet generator, so the tick stream restarts
        now with the new period; monitored PHYs and counters are re-armed.
        """
        monitored = self.detector.monitored_phys()
        self.detector.stop_grid()
        self.detector = FailureDetector(detector_config, notify=self._on_detected)
        for phy_id in monitored:
            self.detector.set_monitor(phy_id, True)
        if self._switch is not None:
            self.detector.start_grid(self.sim)

    def register_ru(self, ru_id: int, mac: MacAddress, port: int, initial_phy: int) -> None:
        """Install an RU's directory entries and initial PHY mapping."""
        self.ru_id_directory.install(mac, ru_id, now=self.sim.now)
        self.ru_port_directory.install(ru_id, (mac, port), now=self.sim.now)
        self.ru_to_phy.write(ru_id, initial_phy)

    def register_phy(self, phy_id: int, mac: MacAddress, port: int) -> None:
        """Install a PHY server's directory entries."""
        self.phy_id_directory.install(mac, phy_id, now=self.sim.now)
        self.phy_address_directory.install(phy_id, (mac, port), now=self.sim.now)
        self.l2_table[mac] = port

    def register_l2_host(self, mac: MacAddress, port: int) -> None:
        """Install a plain host (L2 server, core uplink) for L2 forwarding."""
        self.l2_table[mac] = port

    def set_notification_target(self, mac: MacAddress, port: int) -> None:
        """Configure where failure notifications go (the L2-side Orion)."""
        self.notification_target = (mac, port)

    # ------------------------------------------------------------------
    # Pipeline (the switch's ``process`` call)
    # ------------------------------------------------------------------
    def process(
        self, frame: EthernetFrame, in_port: int, switch: Switch
    ) -> Forward:
        if frame.ethertype == ETH_ECPRI:
            return self._process_fronthaul(frame, in_port)
        if frame.ethertype == ETH_SLINGSHOT:
            return self._process_command(frame, in_port)
        return self._process_l2(frame, in_port)

    # --- Fronthaul ----------------------------------------------------
    def _process_fronthaul(
        self, frame: EthernetFrame, in_port: int
    ) -> Forward:
        payload = frame.payload
        if isinstance(payload, (UplaneUplink, UplaneUplinkControlOnly)):
            return self._process_uplink(frame, payload)
        if isinstance(payload, (CplaneMessage, UplaneDownlink)):
            return self._process_downlink(frame, payload)
        self.stats.unknown_dropped += 1
        return None

    def _effective_phy(self, ru_id: int, abs_slot: int) -> int:
        """Active PHY for an RU at a given slot.

        A pending `migrate_on_slot` takes effect for packets whose slot is
        at or past the boundary even before the register flip commits;
        symmetrically, packets for slots *before* the last committed
        boundary still resolve to the previous PHY, so a late pre-boundary
        packet can never leak from (or to) the wrong PHY.
        """
        if self.mig_valid.read(ru_id) and abs_slot >= self.mig_slot.read(ru_id):
            return self.mig_dest.read(ru_id)
        if abs_slot < self.last_boundary.read(ru_id):
            return self.prev_phy.read(ru_id)
        return self.ru_to_phy.read(ru_id)

    def _maybe_commit_migration(self, ru_id: int, abs_slot: int) -> None:
        """Data-plane commit: first packet at/past the boundary flips the map."""
        if not self.mig_valid.read(ru_id):
            return
        if abs_slot >= self.mig_slot.read(ru_id):
            dest = self.mig_dest.read(ru_id)
            self.prev_phy.write(ru_id, self.ru_to_phy.read(ru_id))
            self.last_boundary.write(ru_id, self.mig_slot.read(ru_id))
            self.ru_to_phy.write(ru_id, dest)
            self.mig_valid.write(ru_id, 0)
            self.stats.migrations_executed += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.now,
                    "mbox.migration_committed",
                    ru=ru_id,
                    dest_phy=dest,
                    slot=abs_slot,
                )

    def _steer(self, ru_id: int, abs_slot: int) -> int:
        """Active PHY for a packet of ``abs_slot``, committing first a
        migration whose boundary the packet reaches. One ``mig_valid``
        read settles every packet that finds no `migrate_on_slot` pending."""
        if self.mig_valid.read(ru_id):
            self._maybe_commit_migration(ru_id, abs_slot)
            return self._effective_phy(ru_id, abs_slot)
        if abs_slot < self.last_boundary.read(ru_id):
            return self.prev_phy.read(ru_id)
        return self.ru_to_phy.read(ru_id)

    # --- A dormant standby's heartbeats (core/standby.py) ----------------
    def filters(self, phy_id: int, ru_id: int, abs_slot: int) -> bool:
        """True when a downlink packet of ``abs_slot`` from ``phy_id``
        would be filtered by the no-migration branch of :meth:`_steer`
        (read without counting register accesses)."""
        return (
            not self.mig_valid.peek(ru_id)
            and abs_slot >= self.last_boundary.peek(ru_id)
            and self.ru_to_phy.peek(ru_id) != phy_id
        )

    def absorb_filtered(
        self, phy_id: int, ru_id: int, count: int, last_ns: int
    ) -> None:
        """Account ``count`` downlink packets from ``phy_id`` that
        :meth:`filters` dropped, the last arriving at ``last_ns``: the
        counters, table and register accesses and detector heartbeats
        :meth:`_process_downlink` would have produced."""
        self.phy_id_directory.lookups += count
        self.phy_id_directory.hits += count
        self.mig_valid.reads += count
        self.last_boundary.reads += count
        self.ru_to_phy.reads += count
        self.stats.dl_filtered += count
        self.detector.note_heartbeats(phy_id, count, last_ns)

    def _process_uplink(self, frame: EthernetFrame, payload) -> Forward:
        ru_id = self.ru_id_directory.lookup(frame.src)
        if ru_id is None:
            self.stats.unknown_dropped += 1
            return None
        phy_id = self._steer(ru_id, payload.abs_slot)
        target = self.phy_address_directory.lookup(phy_id)
        if target is None:
            self.stats.unknown_dropped += 1
            return None
        mac, port = target
        self.stats.ul_steered += 1
        return port, frame.copy_to(mac)

    def _process_downlink(self, frame: EthernetFrame, payload) -> Forward:
        src_phy = self.phy_id_directory.lookup(frame.src)
        if src_phy is None:
            self.stats.unknown_dropped += 1
            return None
        # Any downlink packet refreshes its sender's liveness counter,
        # including packets about to be filtered.
        self.detector.on_heartbeat(src_phy, self.sim.now)
        ru_id = payload.ru_id
        if src_phy != self._steer(ru_id, payload.abs_slot):
            self.stats.dl_filtered += 1
            return None
        target = self.ru_port_directory.lookup(ru_id)
        if target is None:
            self.stats.unknown_dropped += 1
            return None
        mac, port = target
        self.stats.dl_forwarded += 1
        return port, frame.copy_to(mac)

    # --- Slingshot commands ---------------------------------------------
    def _process_command(self, frame: EthernetFrame, in_port: int) -> Forward:
        payload = frame.payload
        self.stats.commands_received += 1
        if isinstance(payload, MigrateOnSlot):
            if self.config.align_to_tti:
                # Idempotence guard: Orion retransmits migrate_on_slot
                # against command loss. A copy arriving after its
                # migration already committed must not re-arm the
                # boundary (it would double-commit and corrupt prev_phy).
                if (
                    not self.mig_valid.read(payload.ru_id)
                    and self.ru_to_phy.read(payload.ru_id) == payload.dest_phy_id
                    and self.last_boundary.read(payload.ru_id) == payload.slot
                ):
                    self.stats.duplicate_commands_ignored += 1
                    return None
                self.mig_dest.write(payload.ru_id, payload.dest_phy_id)
                self.mig_slot.write(payload.ru_id, payload.slot)
                self.mig_valid.write(payload.ru_id, 1)
            else:
                # Ablation: flip immediately, ignoring TTI alignment.
                self.ru_to_phy.write(payload.ru_id, payload.dest_phy_id)
                self.mig_valid.write(payload.ru_id, 0)
                self.stats.migrations_executed += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.now,
                    "mbox.migrate_on_slot",
                    ru=payload.ru_id,
                    dest_phy=payload.dest_phy_id,
                    slot=payload.slot,
                )
        elif isinstance(payload, SetMonitor):
            self.detector.set_monitor(payload.phy_id, payload.enabled)
        return None

    # --- Plain L2 fallback ----------------------------------------------
    def _process_l2(self, frame: EthernetFrame, in_port: int) -> Forward:
        port = self.l2_table.get(frame.dst)
        if port is None or port == in_port:
            self.stats.unknown_dropped += 1
            return None
        return port, frame

    # ------------------------------------------------------------------
    # Detection path
    # ------------------------------------------------------------------
    def _on_detected(self, phy_id: int, detected_at: int) -> None:
        """Reformat the detecting timer packet into a failure notification."""
        if self.trace is not None:
            self.trace.record(detected_at, "mbox.failure_detected", phy=phy_id)
        if self.notification_target is None or self._switch is None:
            return
        mac, port = self.notification_target
        notification = EthernetFrame(
            src=self.virtual_phy_mac,
            dst=mac,
            ethertype=ETH_SLINGSHOT,
            payload=FailureNotification(phy_id=phy_id, detected_at=detected_at),
            wire_bytes=SLINGSHOT_CMD_BYTES,
        )
        self.stats.notifications_sent += 1
        # Same call as a forwarded frame, so the egress link sees every
        # sender's ready time in trigger order.
        self._switch.port(port).transmit(notification)
