"""Tests for the application layer: ping, iperf, video — over a live cell."""

import numpy as np
import pytest

from repro.apps.iperf import TcpIperfUplink, UdpIperfDownlink, UdpIperfUplink
from repro.apps.ping import PingClient, UePingResponder
from repro.apps.video import VideoReceiver, VideoSender
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import MS, SECOND, s_to_ns
from repro.transport.packet import Packet


@pytest.fixture(scope="module")
def cell():
    """A shared steady cell for the application tests."""
    return build_slingshot_cell(
        CellConfig(seed=21, ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=17.0)])
    )


class TestPing:
    def test_round_trip_and_latency_scale(self):
        local = build_slingshot_cell(
            CellConfig(seed=22, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        ue = local.ue(1)
        responder = UePingResponder(ue, "ping", bearer_id=1)
        ue.dl_sink = lambda bearer, sdu: (
            responder.on_packet(sdu) if isinstance(sdu, Packet) else None
        )
        client = PingClient(
            local.sim, local.server, 1, "ping", bearer_id=1, interval_ns=10 * MS
        )
        local.run_for(s_to_ns(0.2))
        client.start()
        local.run_for(s_to_ns(0.8))
        rtts = [rtt for _, rtt in client.rtt_series_ms()]
        assert len(rtts) > 50
        median = float(np.median(rtts))
        # Cellular-scale RTT: tens of ms (paper's §8.7 median: 22.8 ms).
        assert 15.0 < median < 60.0
        assert client.loss_count() == 0


class TestUdpIperf:
    def test_uplink_throughput_matches_offered_load(self):
        local = build_slingshot_cell(
            CellConfig(seed=23, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        flow = UdpIperfUplink(
            local.sim, local.server, local.ue(1), "ul", 1, bitrate_bps=12e6
        )
        local.run_for(s_to_ns(0.2))
        flow.start()
        local.run_for(s_to_ns(0.8))
        received_mbps = (
            flow.sink.stats.bytes_received * 8 / 0.8 / 1e6
        )
        assert received_mbps == pytest.approx(12.0, rel=0.15)
        assert flow.sink.stats.loss_rate < 0.02

    def test_downlink_throughput(self):
        local = build_slingshot_cell(
            CellConfig(seed=24, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        flow = UdpIperfDownlink(
            local.sim, local.server, local.ue(1), "dl", 1, bitrate_bps=40e6
        )
        local.run_for(s_to_ns(0.2))
        flow.start()
        local.run_for(s_to_ns(0.8))
        received_mbps = flow.sink.stats.bytes_received * 8 / 0.8 / 1e6
        assert received_mbps == pytest.approx(40.0, rel=0.15)

    def test_throughput_series_bins(self):
        local = build_slingshot_cell(
            CellConfig(seed=25, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        flow = UdpIperfUplink(
            local.sim, local.server, local.ue(1), "ul", 1, bitrate_bps=8e6
        )
        local.run_for(s_to_ns(0.2))
        flow.start()
        local.run_for(s_to_ns(0.5))
        series = flow.sink.throughput_series(s_to_ns(0.4), s_to_ns(0.7))
        assert len(series) == 30  # 10 ms bins over 300 ms.
        mean = sum(m for _, m in series) / len(series)
        assert mean == pytest.approx(8.0, rel=0.3)


class TestTcpIperf:
    def test_uplink_tcp_saturates_radio(self):
        local = build_slingshot_cell(
            CellConfig(seed=26, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        flow = TcpIperfUplink(local.sim, local.server, local.ue(1), "tcp", 1)
        local.run_for(s_to_ns(0.2))
        flow.start()
        local.run_for(s_to_ns(1.3))
        # Steady-state goodput in the last 300 ms approaches the UL
        # capacity (~46 Mb/s at 64-QAM over the full carrier).
        series = flow.receiver.throughput_series(s_to_ns(1.2), s_to_ns(1.5))
        mean = sum(m for _, m in series) / len(series)
        assert mean > 30.0


class TestVideo:
    def test_bitrate_meter_tracks_target(self):
        local = build_slingshot_cell(
            CellConfig(seed=27, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        ue = local.ue(1)
        sender = VideoSender(
            local.sim, local.server, 1, "video", 1,
            bitrate_bps=500_000.0, rng=np.random.default_rng(0),
        )
        receiver = VideoReceiver(local.sim, ue, "video")
        local.run_for(s_to_ns(0.2))
        sender.start()
        local.run_for(s_to_ns(2.0))
        series = receiver.bitrate_series_kbps(s_to_ns(0.5), s_to_ns(2.2))
        mean = sum(k for _, k in series) / len(series)
        assert mean == pytest.approx(500.0, rel=0.2)
        assert receiver.outage_seconds(s_to_ns(0.5), s_to_ns(2.2)) == 0.0

    def test_sender_paces_frames(self):
        local = build_slingshot_cell(
            CellConfig(seed=28, ue_profiles=[UeProfile(1, "UE", 17.0)])
        )
        sender = VideoSender(
            local.sim, local.server, 1, "v", 1, 500_000.0,
            rng=np.random.default_rng(0),
        )
        sender.start()
        local.run_for(s_to_ns(1.0))
        assert sender.frames_sent == pytest.approx(30, abs=2)
