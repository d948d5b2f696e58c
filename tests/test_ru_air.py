"""Tests for the RU model and the air interface."""

import numpy as np
import pytest

from repro.fronthaul.air import AirInterface, UeRadioPort
from repro.fronthaul.oran import (
    CplaneMessage,
    UlGrant,
    UplaneDownlink,
    UplaneUplink,
    uplane_wire_bytes,
)
from repro.fronthaul.ru import RadioUnit
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.phy.channel import UeChannelModel
from repro.phy.modulation import Modulation
from repro.phy.numerology import SlotClock
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, US


def channel_model(seed):
    return UeChannelModel(
        np.random.default_rng(seed),
        mean_snr_db=18.0,
        shadow_sigma_db=1.2,
        fade_probability=0.0005,
    )


class RecordingListener:
    def __init__(self):
        self.control = []
        self.data = []

    def on_dl_control(self, abs_slot, grants, vran_instance_id):
        self.control.append((abs_slot, grants, vran_instance_id))

    def on_dl_data(self, abs_slot, block, realization):
        self.data.append((abs_slot, block, realization))


class UplinkSink:
    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def receive_frame(self, frame, ingress):
        self.frames.append(frame)


def build_ru(sim):
    clock = SlotClock()
    air = AirInterface()
    sink = UplinkSink(sim)
    uplink = Link(sim, sink, bandwidth_bps=0, latency_ns=0)
    ru = RadioUnit(
        sim=sim, ru_id=0, mac=MacAddress(0x10),
        virtual_phy_mac=MacAddress(0xF0),
        slot_clock=clock, air=air, trace=TraceRecorder(), name="ru",
    )
    ru.uplink = uplink
    ru.start()
    return ru, air, sink, clock


def cplane(abs_slot, grants=(), phy=0, instance=1):
    clock = SlotClock()
    return CplaneMessage(
        ru_id=0, address=clock.address_of(abs_slot), abs_slot=abs_slot,
        ul_grants=list(grants), source_phy_id=phy, vran_instance_id=instance,
    )


def frame_of(payload, src=MacAddress(0x20)):
    return EthernetFrame(
        src=src, dst=MacAddress(0x10), ethertype=EtherType.ECPRI,
        payload=payload, wire_bytes=100,
    )


class TestAirInterface:
    def test_attach_and_broadcast(self):
        air = AirInterface()
        listener = RecordingListener()
        channel = channel_model(0)
        air.attach(UeRadioPort(1, channel, listener))
        air.broadcast_dl_control(5, [], vran_instance_id=3)
        assert listener.control == [(5, [], 3)]

    def test_detached_port_silent(self):
        air = AirInterface()
        listener = RecordingListener()
        port = UeRadioPort(1, channel_model(0), listener)
        air.attach(port)
        port.attached = False
        air.broadcast_dl_control(5, [], vran_instance_id=1)
        assert listener.control == []

    def test_dl_data_only_reaches_target_ue(self):
        air = AirInterface()
        listeners = {}
        for ue_id in (1, 2):
            listeners[ue_id] = RecordingListener()
            air.attach(
                UeRadioPort(
                    ue_id, channel_model(ue_id),
                    listeners[ue_id],
                )
            )
        block = TransportBlock(
            ue_id=2, direction=LinkDirection.DOWNLINK, harq_process=0,
            modulation=Modulation.QPSK, prbs=10, data=[], size_bytes=10,
        )
        air.deliver_dl_data(7, block)
        assert listeners[1].data == []
        assert len(listeners[2].data) == 1

    def test_collect_uplink_pops_and_drops_stale(self):
        air = AirInterface()
        listener = RecordingListener()
        port = UeRadioPort(1, channel_model(0), listener)
        air.attach(port)
        port.stage_uplink(3, None, [(1, 0, 9, True)], 0)
        port.stage_uplink(10, None, [(1, 0, 10, True)], 0)
        captured = air.collect_uplink(10)
        assert len(captured) == 1
        assert captured[0].dl_feedback[0][2] == 10
        # Slot 3's staged entry was stale and silently dropped.
        assert air.collect_uplink(3) == []


class TestRadioUnit:
    def test_control_broadcast_after_deadline(self):
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        listener = RecordingListener()
        air.attach(UeRadioPort(1, channel_model(0), listener))
        ru.receive_frame(frame_of(cplane(2)), ingress=None)
        sim.run_until(clock.slot_start(2) + 300 * US)
        assert [c[0] for c in listener.control] == [2]

    def test_slot_without_control_counts_gap(self):
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        sim.run_until(5 * MS)  # 10 slots, no PHY traffic at all.
        assert ru.stats.slots_without_control >= 8

    def test_uplink_capture_ships_to_virtual_mac(self):
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        listener = RecordingListener()
        port = UeRadioPort(1, channel_model(0), listener)
        air.attach(port)
        # Slot 4 is UL in DDDSU. Provide control for it, stage a block.
        ru.receive_frame(frame_of(cplane(4)), ingress=None)
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.UPLINK, harq_process=0,
            modulation=Modulation.QPSK, prbs=10, data=[], size_bytes=10, tb_id=42,
        )
        port.stage_uplink(4, block, [], 0)
        sim.run_until(clock.slot_start(5) + 100 * US)
        assert len(sink.frames) == 1
        frame = sink.frames[0]
        assert frame.dst == ru.virtual_phy_mac
        assert isinstance(frame.payload, UplaneUplink)
        assert frame.payload.block.tb_id == 42

    def test_no_capture_without_cplane(self):
        """A dead PHY means no UL C-plane → the RU captures nothing —
        exactly how uplink blacks out during failover."""
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        listener = RecordingListener()
        port = UeRadioPort(1, channel_model(0), listener)
        air.attach(port)
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.UPLINK, harq_process=0,
            modulation=Modulation.QPSK, prbs=10, data=[], size_bytes=10,
        )
        port.stage_uplink(4, block, [], 0)
        sim.run_until(clock.slot_start(6))
        assert sink.frames == []

    def test_conflicting_sources_detected(self):
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        ru.receive_frame(frame_of(cplane(2, phy=0)), ingress=None)
        ru.receive_frame(frame_of(cplane(2, phy=1)), ingress=None)
        assert ru.stats.conflicting_source_slots == 1

    def test_single_source_not_flagged(self):
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        ru.receive_frame(frame_of(cplane(2, phy=0)), ingress=None)
        ru.receive_frame(frame_of(cplane(3, phy=0)), ingress=None)
        assert ru.stats.conflicting_source_slots == 0

    def test_dl_data_radiated_with_control(self):
        sim = Simulator()
        ru, air, sink, clock = build_ru(sim)
        listener = RecordingListener()
        air.attach(UeRadioPort(1, channel_model(0), listener))
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.DOWNLINK, harq_process=0,
            modulation=Modulation.QPSK, prbs=10, data=[], size_bytes=10,
        )
        ru.receive_frame(frame_of(cplane(2)), ingress=None)
        ru.receive_frame(
            frame_of(
                UplaneDownlink(
                    ru_id=0, address=clock.address_of(2), abs_slot=2,
                    block=block, source_phy_id=0,
                )
            ),
            ingress=None,
        )
        sim.run_until(clock.slot_start(2) + 300 * US)
        assert len(listener.data) == 1


class TestWireSizes:
    def test_full_bandwidth_slot_volume(self):
        """A 273-PRB slot of IQ data is hundreds of kilobytes — the
        volume argument for the in-switch middlebox (§5)."""
        assert uplane_wire_bytes(273) > 80_000

    def test_scales_with_prbs(self):
        assert uplane_wire_bytes(100) < uplane_wire_bytes(200)
