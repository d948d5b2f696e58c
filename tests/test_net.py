"""Tests for the network substrate: MACs, frames, links, switch."""

import pytest

from repro.net.addresses import BROADCAST_MAC, MacAddress, MacAllocator
from repro.net.link import DuplexLink, Link
from repro.net.packet import EtherType, EthernetFrame, MIN_FRAME_BYTES
from repro.net.switch import StaticL2Pipeline, Switch
from repro.sim.engine import Simulator


class Collector:
    """Test endpoint recording (time, frame) arrivals."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_frame(self, frame, ingress):
        self.received.append((self.sim.now, frame))


def make_frame(src=1, dst=2, payload="x", wire_bytes=100):
    return EthernetFrame(
        src=MacAddress(src),
        dst=MacAddress(dst),
        ethertype=EtherType.IPV4,
        payload=payload,
        wire_bytes=wire_bytes,
    )


class TestMacAddress:
    def test_parse_and_format(self):
        mac = MacAddress.from_string("02:00:00:00:00:2a")
        assert int(mac) == 0x02_00_00_00_00_2A
        assert str(mac) == "02:00:00:00:00:2a"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_malformed_string_rejected(self):
        with pytest.raises(ValueError):
            MacAddress.from_string("02:00:00")

    def test_allocator_unique(self):
        allocator = MacAllocator()
        addresses = {allocator.allocate() for _ in range(100)}
        assert len(addresses) == 100

    def test_broadcast_is_all_ones(self):
        assert int(BROADCAST_MAC) == (1 << 48) - 1


class TestFrames:
    def test_minimum_size_enforced(self):
        frame = make_frame(wire_bytes=10)
        assert frame.wire_bytes == MIN_FRAME_BYTES

    def test_copy_to_rewrites_destination_only(self):
        frame = make_frame()
        copy = frame.copy_to(MacAddress(99))
        assert copy.dst == MacAddress(99)
        assert copy.src == frame.src
        assert copy.payload is frame.payload


class TestLink:
    def test_latency_applied(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, sink, bandwidth_bps=0, latency_ns=5000)
        link.send(make_frame())
        sim.run()
        assert sink.received[0][0] == 5000

    def test_serialization_delay(self):
        sim = Simulator()
        sink = Collector(sim)
        # 1 Gbps: 1000 bytes = 8 us.
        link = Link(sim, sink, bandwidth_bps=1e9, latency_ns=0)
        link.send(make_frame(wire_bytes=1000))
        sim.run()
        assert sink.received[0][0] == 8000

    def test_fifo_back_to_back(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, sink, bandwidth_bps=1e9, latency_ns=100)
        link.send(make_frame(wire_bytes=1000))
        link.send(make_frame(wire_bytes=1000))
        sim.run()
        times = [t for t, _ in sink.received]
        assert times == [8100, 16100]

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, Collector(sim))
        link.send(make_frame(wire_bytes=100))
        link.send(make_frame(wire_bytes=200))
        assert link.frames_sent == 2
        assert link.bytes_sent == 300

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, None)
        with pytest.raises(RuntimeError):
            link.send(make_frame())

    def test_duplex_wiring(self):
        sim = Simulator()
        a, b = Collector(sim), Collector(sim)
        duplex = DuplexLink(sim, latency_ns=10)
        duplex.connect(a, b)
        duplex.forward.send(make_frame(payload="to-b"))
        duplex.reverse.send(make_frame(payload="to-a"))
        sim.run()
        assert b.received[0][1].payload == "to-b"
        assert a.received[0][1].payload == "to-a"


class TestSwitch:
    def _build(self):
        sim = Simulator()
        switch = Switch(sim, pipeline_latency_ns=100)
        hosts = []
        for i in range(3):
            host = Collector(sim)
            port = switch.attach(host, latency_ns=10, name=f"h{i}")
            hosts.append((host, port))
        return sim, switch, hosts

    def test_static_forwarding(self):
        sim, switch, hosts = self._build()
        pipeline = switch.pipeline
        pipeline.learn(MacAddress(2), hosts[1][1].number)
        hosts[0][1].ingress_link.send(make_frame(src=1, dst=2))
        sim.run()
        assert len(hosts[1][0].received) == 1
        assert len(hosts[2][0].received) == 0

    def test_unknown_destination_dropped(self):
        sim, switch, hosts = self._build()
        hosts[0][1].ingress_link.send(make_frame(src=1, dst=77))
        sim.run()
        assert switch.frames_dropped == 1

    def test_broadcast_floods_other_ports(self):
        sim, switch, hosts = self._build()
        frame = EthernetFrame(
            src=MacAddress(1), dst=BROADCAST_MAC,
            ethertype=EtherType.IPV4, payload="b",
        )
        hosts[0][1].ingress_link.send(frame)
        sim.run()
        assert len(hosts[0][0].received) == 0
        assert len(hosts[1][0].received) == 1
        assert len(hosts[2][0].received) == 1

    def test_pipeline_latency_added(self):
        sim, switch, hosts = self._build()
        switch.pipeline.learn(MacAddress(2), hosts[1][1].number)
        hosts[0][1].ingress_link.send(make_frame(src=1, dst=2, wire_bytes=64))
        sim.run()
        arrival = hosts[1][0].received[0][0]
        # ~10ns + serialization in, 100ns pipeline, ~10ns + serialization out.
        assert arrival > 120
        # The ingress and egress deliveries are the hop's only engine
        # events; the pipeline latency costs none.
        assert sim.events_processed == 2

    def test_duplicate_port_number_rejected(self):
        sim = Simulator()
        switch = Switch(sim)
        switch.add_port(5)
        with pytest.raises(ValueError):
            switch.add_port(5)

    def test_inject_runs_pipeline(self):
        sim, switch, hosts = self._build()
        switch.pipeline.learn(MacAddress(2), hosts[1][1].number)
        switch.inject(make_frame(src=9, dst=2))
        sim.run()
        assert len(hosts[1][0].received) == 1
