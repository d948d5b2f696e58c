"""Core network model.

Routes user-plane packets between the application server and the L2
(GTP-tunnel latency folded into a fixed one-way delay), and runs
the control-plane attach procedure.

The attach duration default reproduces the paper's measured baseline:
when a vRAN fails without Slingshot, the UE's RLF leads to a full
re-establishment with the core that keeps it offline for ~6.2 s (§8.1;
consistent with Qualcomm's ~5 s field reports cited there).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.l2.mac import L2Process
from repro.l2.rlc import RlcBearerConfig
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, s_to_ns
from repro.transport.packet import FlowDirection, Packet
from repro.ue.ue import UserEquipment


# Core-network tunables.

#: One-way user-plane latency between L2 and the core's N6 interface.
BACKHAUL_LATENCY_NS = 4 * MS
#: Mean duration of the full UE attach procedure (RRC + NAS + bearers).
ATTACH_DURATION_NS = s_to_ns(6.2)
#: Jitter applied to each attach (uniform +/-).
ATTACH_JITTER_NS = s_to_ns(0.3)


class CoreNetwork(Process):
    """User-plane anchor + attach procedure for one cell's UEs."""

    def __init__(
        self,
        sim: Simulator,
        registry: RngRegistry,
        trace: TraceRecorder,
        name: str = "core",
    ) -> None:
        super().__init__(sim, name)
        #: Named-stream registry. Attach jitter is drawn from a per-UE
        #: stream so that concurrent RLFs (same-timestamp events) get the
        #: same durations regardless of the order their events fire in.
        self.registry = registry
        self.trace = trace
        #: The primary binding (set by :meth:`bind_l2` before any UE is
        #: admitted).
        self.l2: Optional[L2Process] = None
        #: UEs known to the core, with their bearer profiles.
        self._ues: Dict[int, UserEquipment] = {}
        self._bearer_profiles: Dict[int, List[RlcBearerConfig]] = {}
        self._ue_snr_hint: Dict[int, float] = {}
        #: Serving L2 per UE, set at admission.
        self._l2_for_ue: Dict[int, L2Process] = {}
        #: Uplink handler on the server side of the core (set by the
        #: AppServer, which every builder builds with the core).
        self.uplink_handler: Callable[[Packet], None]
        self.packets_ul = 0
        self.packets_dl = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_l2(self, l2: L2Process) -> None:
        """Attach the (current) serving L2 and hook its uplink output.

        Re-binding (e.g. the baseline's switch to a backup vRAN stack)
        moves every UE that was served by the previous primary binding
        onto the new one; per-UE bindings made explicitly via
        :meth:`admit_ue` with another L2 are left alone.
        """
        previous = self.l2
        self.l2 = l2
        l2.uplink_sink = self._on_uplink_sdu
        if previous is not None and previous is not l2:
            for ue_id, serving in list(self._l2_for_ue.items()):
                if serving is previous:
                    self._l2_for_ue[ue_id] = l2

    def admit_ue(
        self,
        ue: UserEquipment,
        bearers: List[RlcBearerConfig],
        snr_hint_db: float,
        l2: L2Process,
    ) -> None:
        """Register a UE as attached to ``l2`` (initial bring-up, no
        delay)."""
        self._ues[ue.ue_id] = ue
        self._bearer_profiles[ue.ue_id] = list(bearers)
        self._ue_snr_hint[ue.ue_id] = snr_hint_db
        self._l2_for_ue[ue.ue_id] = l2
        ue.on_rlf = self._on_ue_rlf
        l2.register_ue(ue.ue_id, bearers, snr_db=snr_hint_db)

    def _serving_l2(self, ue_id: int) -> L2Process:
        return self._l2_for_ue.get(ue_id, self.l2)

    # ------------------------------------------------------------------
    # User plane
    # ------------------------------------------------------------------
    def send_downlink(self, packet: Packet) -> None:
        """Server -> core -> L2: deliver after backhaul latency."""
        self.packets_dl += 1
        self.sim.schedule(BACKHAUL_LATENCY_NS, self._deliver_dl, packet)

    def _deliver_dl(self, packet: Packet) -> None:
        serving = self._l2_for_ue.get(packet.ue_id, self.l2)  # _serving_l2, inlined
        serving.send_downlink(
            packet.ue_id, packet.bearer_id, packet, packet.size_bytes
        )

    def _on_uplink_sdu(self, ue_id: int, bearer_id: int, sdu: Any) -> None:
        """L2 -> core -> server: deliver after backhaul latency."""
        self.packets_ul += 1
        self.sim.schedule(BACKHAUL_LATENCY_NS, self._deliver_ul, sdu)

    def _deliver_ul(self, sdu: Any) -> None:
        if isinstance(sdu, Packet):
            self.uplink_handler(sdu)

    # ------------------------------------------------------------------
    # Control plane: RLF -> reattach
    # ------------------------------------------------------------------
    def _on_ue_rlf(self, ue: UserEquipment) -> None:
        """A UE lost the radio link: purge its context and begin reattach."""
        serving = self._serving_l2(ue.ue_id)
        serving.deregister_ue(ue.ue_id)
        rng = self.registry.stream(f"core.attach.ue{ue.ue_id}")
        jitter = int(rng.uniform(-1.0, 1.0) * ATTACH_JITTER_NS)
        duration = max(ATTACH_DURATION_NS + jitter, 0)
        self.trace.record(
            self.sim.now, "core.attach_started", ue=ue.ue_id, expected_ns=duration
        )
        self.sim.schedule(duration, self._finish_attach, ue)

    def _finish_attach(self, ue: UserEquipment) -> None:
        bearers = self._bearer_profiles[ue.ue_id]
        serving = self._serving_l2(ue.ue_id)
        serving.register_ue(
            ue.ue_id, bearers, snr_db=self._ue_snr_hint[ue.ue_id]
        )
        ue.complete_reattach()
        self.trace.record(self.sim.now, "core.attach_done", ue=ue.ue_id)
