"""Cross-layer property tests on the invariants the design relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import MigrateOnSlot
from repro.core.fh_middlebox import FronthaulMiddlebox
from repro.l2.mac import DL_HARQ_PROCESSES
from repro.net.addresses import MacAddress
from repro.net.packet import EtherType, EthernetFrame
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.transport.packet import FlowDirection
from repro.transport import tcp as tcp_module
from repro.transport.tcp import TcpReceiver, TcpSender


class TestSimulatorProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_schedules_fire_in_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)
        for fire_time, delay in fired:
            assert fire_time == delay

    @given(st.lists(st.tuples(st.integers(0, 5_000), st.booleans()),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_cancellation_never_fires(self, entries):
        sim = Simulator()
        fired = []
        handles = []
        for delay, cancel in entries:
            handle = sim.schedule(delay, lambda i=len(handles): fired.append(i))
            handles.append((handle, cancel))
        for handle, cancel in handles:
            if cancel:
                sim.cancel(handle)
        sim.run()
        expected = [i for i, (_, cancel) in enumerate(handles) if not cancel]
        assert sorted(fired) == expected


class TestMiddleboxSteeringProperty:
    @given(
        boundary=st.integers(min_value=10, max_value=500),
        packet_slots=st.lists(st.integers(0, 600), min_size=1, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_slot_partition_is_exact_for_any_arrival_order(
        self, boundary, packet_slots
    ):
        """For every arrival order, packets with slot < boundary resolve
        to the old PHY and slot >= boundary to the new — the contract
        the RU's protocol compliance depends on."""
        sim = Simulator()
        switch = Switch(sim)
        switch.pipeline_latency_ns = 0
        mbox = FronthaulMiddlebox(sim)
        mbox.install_on(switch)
        mbox.register_ru(0, MacAddress(0x10), 0, initial_phy=0)
        mbox.register_phy(0, MacAddress(0x20), 1)
        mbox.register_phy(1, MacAddress(0x21), 2)
        mbox.mig_dest.write(0, 1)
        mbox.mig_slot.write(0, boundary)
        mbox.mig_valid.write(0, 1)
        for slot in packet_slots:
            mbox._maybe_commit_migration(0, slot)
            effective = mbox._effective_phy(0, slot)
            assert effective == (1 if slot >= boundary else 0), (
                f"slot {slot} boundary {boundary}"
            )


class TestTcpEndToEndProperty:
    @given(
        seed=st.integers(0, 2**31 - 1),
        loss_points=st.lists(st.integers(5, 60), max_size=6),
        reorder_ms=st.integers(0, 8),
    )
    @settings(max_examples=8, deadline=None)
    def test_delivery_is_exactly_in_order_and_gapless(
        self, seed, loss_points, reorder_ms
    ):
        """Under arbitrary loss bursts and bounded reordering, the
        receiver application sees a gapless, in-order byte stream."""
        sim = Simulator()
        rng = np.random.default_rng(seed)
        drop_at = {p * 1200 * 3 for p in loss_points}

        receiver_box = {}

        def to_receiver(packet):
            segment = packet.payload
            if segment.seq in drop_at:
                drop_at.discard(segment.seq)
                return
            jitter = int(rng.integers(0, reorder_ms + 1)) * MS
            sim.schedule(3 * MS + jitter, receiver_box["rx"].on_segment, segment)

        def to_sender(packet):
            sim.schedule(3 * MS, receiver_box["tx"].on_ack, packet.payload)

        sender = TcpSender(
            sim, "f", 1, 1, FlowDirection.UPLINK, transmit=to_receiver
        )
        receiver = TcpReceiver(
            sim, "f", 1, 1, FlowDirection.DOWNLINK, transmit_ack=to_sender
        )
        receiver_box["rx"] = receiver
        receiver_box["tx"] = sender
        # Keep the flow small so hypothesis examples stay cheap.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tcp_module, "RECEIVE_WINDOW_SEGMENTS", 120)
            sender.start()
            sim.run_until(450 * MS)
            sender.stop()
        # In-order gapless delivery: delivered == rcv_nxt and it covers
        # a contiguous prefix of the sent stream.
        assert receiver.bytes_delivered == receiver.rcv_nxt
        assert receiver.bytes_delivered > 0
        assert receiver.rcv_nxt <= sender.snd_nxt

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_progress_under_random_light_loss(self, seed):
        """1 % random loss must never deadlock the connection."""
        sim = Simulator()
        rng = np.random.default_rng(seed)
        box = {}

        def to_receiver(packet):
            if rng.random() < 0.01:
                return
            sim.schedule(4 * MS, box["rx"].on_segment, packet.payload)

        def to_sender(packet):
            sim.schedule(4 * MS, box["tx"].on_ack, packet.payload)

        sender = TcpSender(sim, "f", 1, 1, FlowDirection.UPLINK, to_receiver)
        receiver = TcpReceiver(sim, "f", 1, 1, FlowDirection.DOWNLINK, to_sender)
        box["rx"], box["tx"] = receiver, sender
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tcp_module, "RECEIVE_WINDOW_SEGMENTS", 120)
            sender.start()
            sim.run_until(300 * MS)
            first = receiver.bytes_delivered
            sim.run_until(900 * MS)
        assert receiver.bytes_delivered > first  # Still making progress.


class TestHarqTbidProperty:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_mac_never_reuses_live_tb_ids_or_harq_processes(self, seed):
        """Scheduler invariant: at any instant, no two outstanding DL TBs
        of a UE share a HARQ process, and all live tb_ids are unique."""
        from repro.cell.config import CellConfig, UeProfile
        from repro.cell.deployment import build_slingshot_cell
        from repro.sim.units import s_to_ns

        config = CellConfig(
            seed=seed % 1000,
            ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=15.0)],
        )
        cell = build_slingshot_cell(config)
        from repro.apps.iperf import UdpIperfDownlink

        flow = UdpIperfDownlink(
            cell.sim, cell.server, cell.ue(1), "f", 1, bitrate_bps=30e6
        )
        cell.run_for(s_to_ns(0.2))
        flow.start()
        for _ in range(10):
            cell.run_for(s_to_ns(0.03))
            ctx = cell.l2.ues.get(1)
            if ctx is None:
                continue
            tb_ids = [o.pdu.tb_id for o in ctx.dl_outstanding.values()]
            assert len(tb_ids) == len(set(tb_ids))
            # Keys of dl_outstanding *are* the HARQ processes: unique by
            # construction; also bounded by the configured pool.
            assert all(
                0 <= pid < DL_HARQ_PROCESSES
                for pid in ctx.dl_outstanding
            )
