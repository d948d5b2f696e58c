"""Tests for the core network and application server."""

import pytest

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.corenet import core as core_module
from repro.sim.units import MS, s_to_ns
from repro.transport.packet import FlowDirection, Packet


def single_ue_cell(seed=31):
    config = CellConfig(
        seed=seed, ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=17.0)]
    )
    return build_slingshot_cell(config)


class TestUserPlane:
    def test_downlink_traverses_core_to_ue(self):
        cell = single_ue_cell()
        received = []
        cell.ue(1).dl_sink = lambda bearer, sdu: received.append(sdu)
        cell.run_for(s_to_ns(0.2))
        packet = Packet(
            flow_id="x", ue_id=1, bearer_id=1,
            direction=FlowDirection.DOWNLINK, payload="hello",
            size_bytes=100, created_ns=cell.sim.now,
        )
        cell.server.send_to_ue(packet)
        cell.run_for(s_to_ns(0.1))
        assert len(received) == 1
        assert received[0].payload == "hello"

    def test_uplink_traverses_to_server_flow_handler(self):
        cell = single_ue_cell()
        received = []
        cell.server.register_flow("up", received.append)
        cell.run_for(s_to_ns(0.2))
        packet = Packet(
            flow_id="up", ue_id=1, bearer_id=1,
            direction=FlowDirection.UPLINK, payload="data",
            size_bytes=100, created_ns=cell.sim.now,
        )
        cell.ue(1).send_uplink(1, packet, packet.size_bytes)
        cell.run_for(s_to_ns(0.1))
        assert len(received) == 1

    def test_one_way_latency_includes_backhaul_and_server_legs(self):
        cell = single_ue_cell()
        arrivals = []
        cell.server.register_flow("lat", lambda p: arrivals.append(cell.sim.now))
        cell.run_for(s_to_ns(0.2))
        sent_at = cell.sim.now
        packet = Packet(
            flow_id="lat", ue_id=1, bearer_id=1,
            direction=FlowDirection.UPLINK, payload=None,
            size_bytes=100, created_ns=sent_at,
        )
        cell.ue(1).send_uplink(1, packet, 100)
        cell.run_for(s_to_ns(0.1))
        one_way_ms = (arrivals[0] - sent_at) / MS
        # Radio scheduling + backhaul (4 ms) + server leg (6 ms).
        assert 10.0 < one_way_ms < 25.0

    def test_unknown_ue_downlink_dropped(self):
        cell = single_ue_cell()
        cell.run_for(s_to_ns(0.1))
        packet = Packet(
            flow_id="x", ue_id=99, bearer_id=1,
            direction=FlowDirection.DOWNLINK, payload=None, size_bytes=10,
        )
        cell.server.send_to_ue(packet)
        cell.run_for(s_to_ns(0.05))  # No crash; silently dropped.


class TestAttachProcedure:
    def test_reattach_duration_near_6_2_seconds(self):
        cell = single_ue_cell(seed=32)
        cell.run_for(s_to_ns(0.2))
        ue = cell.ue(1)
        cell.core._on_ue_rlf(ue)  # Simulate RLF entry.
        started = cell.trace.last("core.attach_started")
        assert started is not None
        expected_s = started["expected_ns"] / 1e9
        assert 5.5 < expected_s < 7.0

    def test_reattach_reregisters_ue_at_l2(self, monkeypatch):
        monkeypatch.setattr(core_module, "ATTACH_DURATION_NS", s_to_ns(0.1))
        cell = single_ue_cell(seed=33)
        cell.run_for(s_to_ns(0.2))
        ue = cell.ue(1)
        ue.attached = False
        ue.port.attached = False
        cell.core._on_ue_rlf(ue)
        assert 1 not in cell.l2.ues
        cell.run_for(s_to_ns(0.6))
        assert 1 in cell.l2.ues
        assert ue.attached
