"""Tests for FAPI channel models (SHM)."""

import pytest

from repro.fapi.channels import ShmChannel
from repro.fapi.messages import SlotIndication, UlTtiRequest
from repro.sim.engine import Simulator
from repro.sim.units import US


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_fapi(self, message, channel):
        self.received.append((self.sim.now, message, channel))


class TestShmChannel:
    def test_delivery_after_latency(self):
        sim = Simulator()
        sink = Sink(sim)
        channel = ShmChannel(sim, sink, name="shm")
        message = SlotIndication(cell_id=0, slot=5)
        channel.send(message)
        sim.run()
        time, delivered, via = sink.received[0]
        assert time == 1 * US
        assert delivered is message
        assert via is channel

    def test_order_preserved(self):
        sim = Simulator()
        sink = Sink(sim)
        channel = ShmChannel(sim, sink, name="shm")
        for slot in range(5):
            channel.send(SlotIndication(cell_id=0, slot=slot))
        sim.run()
        assert [m.slot for _, m, _ in sink.received] == [0, 1, 2, 3, 4]

    def test_a_channel_is_built_with_its_endpoint(self):
        with pytest.raises(TypeError):
            ShmChannel(Simulator(), name="shm")

    def test_counter(self):
        sim = Simulator()
        channel = ShmChannel(sim, Sink(sim), name="shm")
        channel.send(SlotIndication(cell_id=0, slot=0))
        channel.send(SlotIndication(cell_id=0, slot=1))
        assert channel.messages_sent == 2

    def test_duplex_pairs(self):
        # A duplex FAPI link is two channels, one per direction.
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        a_to_b = ShmChannel(sim, b, name="shm")
        b_to_a = ShmChannel(sim, a, name="shm")
        a_to_b.send(UlTtiRequest(cell_id=0, slot=3, pdus=[]))
        b_to_a.send(SlotIndication(cell_id=0, slot=3))
        sim.run()
        assert isinstance(b.received[0][1], UlTtiRequest)
        assert b.received[0][2] is a_to_b
        assert isinstance(a.received[0][1], SlotIndication)
        assert a.received[0][2] is b_to_a
