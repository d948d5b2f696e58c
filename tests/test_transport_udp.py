"""Unit tests for UDP flows, packets, and throughput binning."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.units import MS, SECOND
from repro.transport.packet import FlowDirection, Packet
from repro.transport.udp import UdpSender, UdpSink


class TestUdpSender:
    def test_pacing_matches_bitrate(self):
        sim = Simulator()
        sent = []
        sender = UdpSender(
            sim, "f", 1, 1, FlowDirection.UPLINK,
            transmit=sent.append, bitrate_bps=9.6e6,
        )
        sender.start()
        sim.run_until(SECOND)
        # 9.6 Mb/s at 1200 B = 1000 packets/s.
        assert len(sent) == pytest.approx(1000, abs=2)

    def test_sequence_numbers_monotonic(self):
        sim = Simulator()
        sent = []
        sender = UdpSender(
            sim, "f", 1, 1, FlowDirection.UPLINK,
            transmit=sent.append, bitrate_bps=1e6,
        )
        sender.start()
        sim.run_until(100 * MS)
        seqs = [p.seq for p in sent]
        assert seqs == list(range(len(seqs)))

    def test_stop_halts_flow(self):
        sim = Simulator()
        sent = []
        sender = UdpSender(
            sim, "f", 1, 1, FlowDirection.UPLINK,
            transmit=sent.append, bitrate_bps=1e6,
        )
        sender.start()
        sim.run_until(50 * MS)
        sender.stop()
        count = len(sent)
        sim.run_until(200 * MS)
        assert len(sent) == count

    def test_bitrate_change_changes_pace(self):
        sim = Simulator()
        sent = []
        sender = UdpSender(
            sim, "f", 1, 1, FlowDirection.UPLINK,
            transmit=sent.append, bitrate_bps=1e6,
        )
        sender.start()
        sim.run_until(500 * MS)
        first_half = len(sent)
        sender.bitrate_bps = 4e6
        sim.run_until(SECOND)
        assert len(sent) - first_half > 3 * first_half


class TestUdpSink:
    def _packet(self, seq, now, size=1000):
        return Packet(
            flow_id="f", ue_id=1, bearer_id=1,
            direction=FlowDirection.UPLINK, payload=None,
            size_bytes=size, created_ns=now, seq=seq,
        )

    def test_loss_accounting(self):
        sim = Simulator()
        sink = UdpSink(sim, "f")
        sink.stats.packets_sent = 10
        for seq in (0, 1, 2, 4, 5):  # 3 lost (of sent=10; 5 received).
            sink.on_packet(self._packet(seq, sim.now))
        assert sink.stats.packets_received == 5
        assert sink.stats.loss_rate == pytest.approx(0.5)

    def test_duplicates_not_double_counted(self):
        sim = Simulator()
        sink = UdpSink(sim, "f")
        sink.on_packet(self._packet(0, 0))
        sink.on_packet(self._packet(0, 0))
        assert sink.stats.packets_received == 1
        assert sink.stats.duplicates == 1

    def test_throughput_bins(self):
        sim = Simulator()
        sink = UdpSink(sim, "f", bin_ns=10 * MS)
        # 5 packets of 1250 B in bin 0 -> 5 Mb/s.
        for seq in range(5):
            sink.on_packet(self._packet(seq, 0, size=1250))
        series = sink.throughput_series(0, 30 * MS)
        assert len(series) == 3
        assert series[0][1] == pytest.approx(5.0)
        assert series[1][1] == 0.0

    def test_blackout_bins(self):
        sim = Simulator()
        sink = UdpSink(sim, "f", bin_ns=10 * MS)
        sink.on_packet(self._packet(0, 0))
        assert sink.blackout_bins(0, 50 * MS) == 4

    def test_min_max_bins(self):
        sim = Simulator()
        sink = UdpSink(sim, "f", bin_ns=10 * MS)
        sink.on_packet(self._packet(0, 0, size=1250))
        series_min, series_max = sink.min_max_bin_mbps(0, 20 * MS)
        assert series_min == 0.0
        assert series_max == pytest.approx(1.0)

    def test_latency_recorded(self):
        sim = Simulator()
        sink = UdpSink(sim, "f")
        sim.schedule(5 * MS, lambda: sink.on_packet(self._packet(0, 0)))
        sim.run()
        assert sink.latencies_ns == [5 * MS]


class TestPacket:
    def test_unique_ids(self):
        a = Packet("f", 1, 1, FlowDirection.UPLINK, None, 10)
        b = Packet("f", 1, 1, FlowDirection.UPLINK, None, 10)
        assert a.packet_id != b.packet_id
