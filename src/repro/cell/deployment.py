"""Deployment wiring: the one module that builds components.

Reproduces the paper's testbed topology (Table 1): RUs on fiber
fronthaul into a Tofino-class switch; two (or more) PHY servers and one
L2 server on 100 GbE; a core network and an application server beyond.
Every other composition root (the fleet composer, the chaos / soak probe
harness, the experiments) calls one of the two builders here and never
constructs a component itself (``tests/test_wiring_site.py``).

Two builders over one set of wiring steps (:class:`_Wiring`):

* :func:`build_slingshot_cell` — the protected deployment: Slingshot's
  fronthaul middlebox on the switch, PHY-side Orions on the PHY servers,
  an L2-side Orion on the L2 server, a hot-standby secondary fed null
  FAPI, and the in-switch failure detector armed on every primary. By
  default one RU with its primary on server 0 and its standby on
  server 1; ``placement`` puts N RUs on the same servers, e.g. the
  paper's economical pod (§2.2, §8: "Slingshot will co-locate primary
  and secondary PHYs for different RUs within PHY processes") with
  crossed roles ``[(0, 1), (1, 0)]`` — each server then runs one real
  workload and one null-FAPI standby inside one PHY process, and
  killing either fails over only the RU it was primary for.
* :func:`build_baseline_cell` — today's vRAN: a full hot-backup vRAN
  stack (its own L2 identity) on the second server; on primary failure
  the fronthaul is re-routed to the backup with the same in-switch
  detector (the most charitable baseline, as in §8.1), but UEs must
  re-establish with the new stack (~6.2 s).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cell.config import CellConfig, UeProfile, default_bearers
from repro.core.commands import MigrateOnSlot, SLINGSHOT_CMD_BYTES
from repro.core.fh_middlebox import FronthaulMiddlebox
from repro.core.orion import L2SideOrion, PhySideOrion
from repro.core.standby import StandbyDormancy
from repro.corenet.core import CoreNetwork
from repro.corenet.server import AppServer
from repro.fapi.channels import ShmChannel
from repro.fronthaul.air import AirInterface
from repro.fronthaul.ru import RadioUnit
from repro.l2.mac import L2Process
from repro.net.addresses import MacAddress, MacAllocator
from repro.net.link import ServerNic
from repro.net.packet import EtherType, EthernetFrame
from repro.net.switch import Switch
from repro.phy.channel import UeChannelModel
from repro.phy.numerology import SlotClock
from repro.phy.process import PhyConfig, PhyProcess
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.ue.ue import UserEquipment

#: One RU's PHY placement: (primary server, standby server or None).
Placement = Tuple[int, Optional[int]]

#: Inter-server link latency inside the edge datacenter.
EDGE_LINK_LATENCY_NS = 1_000
#: Fronthaul fiber latency (RU to switch).
FRONTHAUL_LATENCY_NS = 25_000


@dataclass
class PhyServerNode:
    """A PHY server: PHY process + NIC and, in a Slingshot cell, its
    PHY-side Orion (a baseline PHY answers its L2 over SHM)."""

    phy_id: int
    phy: PhyProcess
    nic: ServerNic
    phy_mac: MacAddress
    port: int
    orion: Optional[PhySideOrion] = field(default=None, init=False)
    orion_mac: Optional[MacAddress] = field(default=None, init=False)


@dataclass
class CellSite:
    """One RU's slice of a deployment (``sites[i]`` is cell ``i``): the RU
    (and, as ``ru.air``, its air interface), the L2 process scheduling it
    and the UEs it serves."""

    ru: RadioUnit
    l2: L2Process
    ues: Dict[int, UserEquipment]


@dataclass
class _BaseCell:
    """Shared state of both deployment flavors.

    ``air`` / ``ru`` are RU 0's; ``ues`` holds every UE of the
    deployment (ids are unique across RUs).
    """

    config: CellConfig
    sim: Simulator
    trace: TraceRecorder
    rng: RngRegistry
    slot_clock: SlotClock
    switch: Switch
    middlebox: FronthaulMiddlebox
    air: AirInterface
    ru: RadioUnit
    phy_servers: List[PhyServerNode]
    core: CoreNetwork
    server: AppServer
    ues: Dict[int, UserEquipment]

    @property
    def slot_ns(self) -> int:
        return self.slot_clock.slot_duration_ns

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def run_until(self, time_ns: int) -> None:
        self.sim.run_until(time_ns)

    def ue(self, ue_id: int) -> UserEquipment:
        return self.ues[ue_id]

    def kill_phy(self, phy_id: int) -> None:
        """SIGKILL a PHY process (the paper's §8.2 failure injection)."""
        self.phy_servers[phy_id].phy.crash(reason="SIGKILL")

    def kill_phy_at(self, phy_id: int, time_ns: int) -> None:
        self.sim.at(time_ns, self.kill_phy, phy_id)


@dataclass
class SlingshotCell(_BaseCell):
    """A deployment protected by Slingshot: one RU by default, one
    :class:`CellSite` per RU (``l2`` is site 0's) when placed as a pod."""

    l2: L2Process = None  # type: ignore[assignment]
    l2_orion: L2SideOrion = None  # type: ignore[assignment]
    sites: List[CellSite] = field(default_factory=list)
    #: Evaluates a healthy standby's slots on touch (core/standby.py).
    dormancy: StandbyDormancy = None  # type: ignore[assignment]

    def planned_migration(self) -> int:
        """Move cell 0's PHY processing to its standby; returns the
        boundary slot."""
        return self.l2_orion.planned_migration(0)

    def live_upgrade(self, decoder_iterations: int) -> int:
        """Zero-downtime PHY upgrade of cell 0 (paper §8.3).

        The standby's PHY process restarts with the upgraded software
        (modeled as a decoder-iteration budget), Orion replays its stored
        initialization so it re-hosts the cell (§6.3), and traffic
        migrates onto it at a TTI boundary. The old primary stays as the
        new standby, ready for the next upgrade wave.
        """
        standby = self.l2_orion.cells[0].secondary_phy
        if standby is None:
            raise RuntimeError("cell 0 has no secondary to upgrade onto")
        phy = self.phy_servers[standby].phy
        phy.crash(reason="upgrade restart")
        phy.restart(decoder_iterations=decoder_iterations)
        self.l2_orion.initialize_secondary(0, standby)
        self.trace.record(
            self.sim.now,
            "controller.upgrade",
            cell=0,
            phy=standby,
            decoder_iterations=decoder_iterations,
        )
        return self.l2_orion.planned_migration(0)


@dataclass
class BaselineCell(_BaseCell):
    """A cell without Slingshot: full hot-backup vRAN stack."""

    primary_l2: L2Process = None  # type: ignore[assignment]
    backup_l2: L2Process = None  # type: ignore[assignment]
    _reroute_armed: bool = True

    def _on_failure(self, phy_id: int, detected_at: int) -> None:
        """Detector callback: re-route fronthaul to the backup vRAN."""
        if not self._reroute_armed or phy_id != 0:
            return
        self._reroute_armed = False
        boundary = self.slot_clock.slot_at(self.sim.now) + 1
        frame = EthernetFrame(
            src=MacAddress(0x02_00_00_00_0F_FF),
            dst=MacAddress(0x02_5A_5A_00_00_02),
            ethertype=EtherType.SLINGSHOT,
            payload=MigrateOnSlot(ru_id=self.ru.ru_id, dest_phy_id=1, slot=boundary),
            wire_bytes=SLINGSHOT_CMD_BYTES,
        )
        self.switch.inject(frame)
        # The backup vRAN now owns the cell: future attach procedures land
        # on its L2.
        self.core.bind_l2(self.backup_l2)
        self.trace.record(self.sim.now, "baseline.rerouted", boundary=boundary)


class _Wiring:
    """The substrate every component is wired against — one event loop,
    trace, RNG registry and edge switch with the middlebox installed —
    and the wiring steps both builders are made of.

    With an external ``sim`` (the fleet composer's island-cell mode) the
    deployment shares one event loop with its siblings but owns every
    other piece of state — switch, middlebox, RNG registry, trace — so
    its canonical trace is byte-identical to a standalone build of the
    same config (``config.tie_shuffle_seed`` then belongs to the shared
    sim's creator and is ignored here).
    """

    def __init__(self, config: CellConfig, sim: Optional[Simulator] = None) -> None:
        if sim is None:
            sim = Simulator(tie_shuffle_seed=config.tie_shuffle_seed)
        self.config = config
        self.sim = sim
        self.trace = TraceRecorder()
        self.rng = RngRegistry(seed=config.seed)
        self.slot_clock = SlotClock()
        self.macs = MacAllocator()
        self.switch = Switch(sim, name="edge-switch")
        self.middlebox = FronthaulMiddlebox(sim, trace=self.trace)
        self.middlebox.install_on(self.switch)

    def radio_unit(self, ru_id: int, initial_phy: int) -> RadioUnit:
        """One RU on its fronthaul fiber, steered to ``initial_phy``."""
        ru_mac = self.macs.allocate()
        ru = RadioUnit(
            sim=self.sim,
            ru_id=ru_id,
            mac=ru_mac,
            virtual_phy_mac=self.middlebox.virtual_phy_mac,
            slot_clock=self.slot_clock,
            air=AirInterface(),
            trace=self.trace,
            name=f"ru{ru_id}",
        )
        ru_port = self.switch.attach(
            ru,
            bandwidth_bps=25e9,
            latency_ns=FRONTHAUL_LATENCY_NS,
            name=f"ru{ru_id}",
        )
        ru.uplink = ru_port.ingress_link
        self.middlebox.register_ru(
            ru_id, ru_mac, ru_port.number, initial_phy=initial_phy
        )
        return ru

    def phy_server(
        self, phy_id: int, decoder_iterations: int, vran_instance_id: int
    ) -> PhyServerNode:
        """One PHY server: PHY + NIC + switch port."""
        phy_mac = self.macs.allocate()
        nic = ServerNic(name=f"phy-server{phy_id}")
        port = self.switch.attach(
            nic,
            bandwidth_bps=100e9,
            latency_ns=EDGE_LINK_LATENCY_NS,
            name=f"phy{phy_id}",
        )
        phy = PhyProcess(
            sim=self.sim,
            phy_id=phy_id,
            mac=phy_mac,
            slot_clock=self.slot_clock,
            rng=self.rng.stream(f"phy{phy_id}"),
            config=PhyConfig(
                decoder_iterations=decoder_iterations,
                vran_instance_id=vran_instance_id,
                massive_mimo=self.config.massive_mimo,
            ),
            uplink=port.ingress_link,
            trace=self.trace,
            name=f"phy{phy_id}",
        )
        nic.phy = phy
        self.middlebox.register_phy(phy_id, phy_mac, port.number)
        return PhyServerNode(
            phy_id=phy_id, phy=phy, nic=nic, phy_mac=phy_mac, port=port.number
        )

    def phy_side_orion(self, node: PhyServerNode) -> None:
        """A Slingshot PHY server's Orion: behind its NIC, on an SHM pair
        with its PHY."""
        node.orion_mac = self.macs.allocate()
        node.orion = orion = PhySideOrion(
            sim=self.sim, phy_id=node.phy_id, mac=node.orion_mac,
            slot_clock=self.slot_clock, trace=self.trace,
            name=f"orion-phy{node.phy_id}",
        )
        orion.uplink = node.phy.uplink
        orion.shm_to_phy = ShmChannel(
            self.sim, node.phy, name=f"shm-orion{node.phy_id}->phy"
        )
        node.phy.fapi_tx = ShmChannel(
            self.sim, orion, name=f"shm-phy{node.phy_id}->orion"
        )
        node.nic.orion = orion
        self.middlebox.register_l2_host(node.orion_mac, node.port)

    def l2_process(self, cell_id: int, name: str) -> L2Process:
        return L2Process(
            sim=self.sim,
            slot_clock=self.slot_clock,
            cell_id=cell_id,
            ru_id=cell_id,
            trace=self.trace,
            name=name,
        )

    def core_and_server(
        self, l2s: Sequence[L2Process]
    ) -> Tuple[CoreNetwork, AppServer]:
        """The core takes uplink SDUs from every L2 in ``l2s``; the first
        is its primary binding (bound last), per-UE routing reaches the
        others."""
        core = CoreNetwork(self.sim, registry=self.rng, trace=self.trace)
        for l2 in reversed(l2s):
            core.bind_l2(l2)
        server = AppServer(self.sim, core)
        return core, server

    def ues(
        self,
        profiles: Sequence[UeProfile],
        air: AirInterface,
        core: CoreNetwork,
        l2: L2Process,
    ) -> Dict[int, UserEquipment]:
        """The UEs of one RU, admitted to the core as served by ``l2``."""
        ues: Dict[int, UserEquipment] = {}
        for profile in profiles:
            channel = UeChannelModel(
                rng=self.rng.stream(f"ue{profile.ue_id}.channel"),
                mean_snr_db=profile.mean_snr_db,
                shadow_sigma_db=profile.shadow_sigma_db,
                fade_probability=profile.fade_probability,
            )
            ue = UserEquipment(
                sim=self.sim,
                ue_id=profile.ue_id,
                slot_clock=self.slot_clock,
                air=air,
                channel=channel,
                rng=self.rng.stream(f"ue{profile.ue_id}.modem"),
                bearers=default_bearers(),
                trace=self.trace,
                name=profile.name,
            )
            core.admit_ue(
                ue, default_bearers(), snr_hint_db=profile.mean_snr_db, l2=l2
            )
            ues[profile.ue_id] = ue
        return ues

    def arm_detector(self, phy_id: int) -> None:
        """Arm failure detection on a primary once it is emitting
        heartbeats (arming before bring-up would trip on the
        not-yet-started PHY)."""
        self.sim.schedule(
            5 * self.slot_clock.slot_duration_ns,
            self.middlebox.detector.set_monitor,
            phy_id,
            True,
        )


def _site_profiles(config: CellConfig, ru_id: int) -> List[UeProfile]:
    """RU 0 serves ``config.ue_profiles`` as given; every further RU
    serves a copy with the ids shifted past the previous RU's, so UE ids
    (and the RNG streams named after them) stay unique pod-wide."""
    if ru_id == 0 or not config.ue_profiles:
        return list(config.ue_profiles)
    stride = 1 + max(profile.ue_id for profile in config.ue_profiles)
    return [
        replace(
            profile,
            ue_id=profile.ue_id + ru_id * stride,
            name=f"ru{ru_id}-{profile.name}",
        )
        for profile in config.ue_profiles
    ]


def build_slingshot_cell(
    config: CellConfig,
    sim: Optional[Simulator] = None,
    placement: Optional[Sequence[Placement]] = None,
) -> SlingshotCell:
    """Build, wire, and start a Slingshot-protected deployment.

    ``sim`` plugs the deployment into an existing event loop (island-cell
    mode, used by :mod:`repro.fleet`); by default it gets its own.
    ``placement`` lists one ``(primary, standby)`` PHY-server pair per RU;
    the default is the single-RU cell with its primary on server 0 and
    (given a second server) its hot standby on server 1. RU ``i`` is
    cell ``i``: its own L2 process behind the shared L2-side Orion, its
    own air interface, and its own copy of ``config.ue_profiles``.
    """
    servers = range(config.num_phy_servers)
    if placement is None:
        placement = [(0, 1 if config.num_phy_servers > 1 else None)]
    if not placement:
        raise ValueError("placement needs at least one RU")
    for primary, standby in placement:
        if primary not in servers or standby == primary or (
            standby is not None and standby not in servers
        ):
            raise ValueError(
                f"placement {(primary, standby)} does not fit "
                f"{config.num_phy_servers} PHY servers"
            )
    wiring = _Wiring(config, sim)
    sim, middlebox = wiring.sim, wiring.middlebox
    rus = [
        wiring.radio_unit(ru_id, initial_phy=primary)
        for ru_id, (primary, _) in enumerate(placement)
    ]
    # PHY servers. All belong to vRAN instance 1 (one L2 server).
    phy_servers: List[PhyServerNode] = []
    for phy_id in servers:
        iterations = config.phy_decoder_iterations
        if phy_id == 1 and config.secondary_decoder_iterations is not None:
            iterations = config.secondary_decoder_iterations
        node = wiring.phy_server(phy_id, iterations, vran_instance_id=1)
        wiring.phy_side_orion(node)
        phy_servers.append(node)
    # L2 server: one L2 process per RU behind one L2-side Orion.
    l2_orion_mac = wiring.macs.allocate()
    l2_nic = ServerNic(name="l2-server")
    l2_port = wiring.switch.attach(
        l2_nic,
        bandwidth_bps=100e9,
        latency_ns=EDGE_LINK_LATENCY_NS,
        name="l2",
    )
    l2_orion = L2SideOrion(
        sim=sim, mac=l2_orion_mac, slot_clock=wiring.slot_clock, trace=wiring.trace
    )
    l2_orion.uplink = l2_port.ingress_link
    l2_nic.orion = l2_orion
    middlebox.register_l2_host(l2_orion_mac, l2_port.number)
    middlebox.set_notification_target(l2_orion_mac, l2_port.number)
    l2s: List[L2Process] = []
    for cell_id, (primary, standby) in enumerate(placement):
        # Cell 0 keeps the single-cell names and is the Orion's default
        # route; further cells are keyed by id.
        tag = "" if cell_id == 0 else f"-cell{cell_id}"
        l2 = wiring.l2_process(cell_id, name=f"l2{tag}")
        l2.set_fapi_channel(ShmChannel(sim, l2_orion, name=f"shm-l2{tag}->orion"))
        shm_to_l2 = ShmChannel(sim, l2, name=f"shm-orion->l2{tag}")
        if cell_id == 0:
            l2_orion.shm_to_l2 = shm_to_l2
        else:
            l2_orion.shm_to_l2_by_cell[cell_id] = shm_to_l2
        l2_orion.assign_cell(
            cell_id=cell_id, ru_id=cell_id, primary_phy=primary, secondary_phy=standby
        )
        l2s.append(l2)
    for node in phy_servers:
        node.orion.l2_orion_mac = l2_orion_mac
        l2_orion.register_phy_server(node.phy_id, node.orion_mac)
    dormancy = StandbyDormancy(sim, middlebox)
    for node in phy_servers:
        dormancy.add_server(node.phy, node.orion)
    dormancy.l2_orion = l2_orion
    l2_orion.dormancy = dormancy
    for phy_id in sorted({primary for primary, _ in placement}):
        wiring.arm_detector(phy_id)
    # Core + app server + UEs.
    core, server = wiring.core_and_server(l2s)
    sites = [
        CellSite(
            ru=ru,
            l2=l2,
            ues=wiring.ues(_site_profiles(config, cell_id), ru.air, core, l2),
        )
        for cell_id, (ru, l2) in enumerate(zip(rus, l2s))
    ]
    # Bring-up.
    for site in sites:
        site.ru.start()
        site.l2.start()
    return SlingshotCell(
        config=config,
        sim=sim,
        trace=wiring.trace,
        rng=wiring.rng,
        slot_clock=wiring.slot_clock,
        switch=wiring.switch,
        middlebox=middlebox,
        air=rus[0].air,
        ru=rus[0],
        phy_servers=phy_servers,
        core=core,
        server=server,
        ues={ue_id: ue for site in sites for ue_id, ue in site.ues.items()},
        l2=l2s[0],
        l2_orion=l2_orion,
        sites=sites,
        dormancy=dormancy,
    )


def build_baseline_cell(config: CellConfig) -> BaselineCell:
    """Build the no-Slingshot baseline: primary vRAN + hot-backup vRAN.

    Each vRAN stack (PHY + L2) runs on its own pair of processes with its
    own identity. The in-switch detector is still used to re-route the
    fronthaul quickly (the paper grants the baseline this much); the UEs
    nevertheless need a full re-establishment with the backup stack.
    """
    wiring = _Wiring(config)
    sim, middlebox = wiring.sim, wiring.middlebox
    ru = wiring.radio_unit(0, initial_phy=0)
    phy_servers: List[PhyServerNode] = []
    l2s: List[L2Process] = []
    # Two independent vRAN stacks: instance ids 1 and 2.
    for phy_id, instance in ((0, 1), (1, 2)):
        node = wiring.phy_server(
            phy_id, config.phy_decoder_iterations, vran_instance_id=instance
        )
        phy_servers.append(node)
        l2 = wiring.l2_process(0, name=f"l2-vran{instance}")
        # In the baseline, each L2 talks straight to its PHY over SHM
        # (tightly-coupled stack, no Orion indirection needed).
        l2.set_fapi_channel(ShmChannel(sim, node.phy, name=f"shm-l2{instance}->phy"))
        node.phy.fapi_tx = ShmChannel(sim, l2, name=f"shm-phy{instance}->l2")
        l2s.append(l2)
    core, server = wiring.core_and_server(l2s[:1])
    ues = wiring.ues(config.ue_profiles, ru.air, core, l2s[0])
    ru.start()
    for l2 in l2s:
        l2.start()
    cell = BaselineCell(
        config=config,
        sim=sim,
        trace=wiring.trace,
        rng=wiring.rng,
        slot_clock=wiring.slot_clock,
        switch=wiring.switch,
        middlebox=middlebox,
        air=ru.air,
        ru=ru,
        phy_servers=phy_servers,
        core=core,
        server=server,
        ues=ues,
        primary_l2=l2s[0],
        backup_l2=l2s[1],
    )
    # Arm detection on the primary and route notifications to the
    # baseline's re-route hook.
    wiring.arm_detector(0)
    middlebox.detector.notify = cell._on_failure
    return cell
