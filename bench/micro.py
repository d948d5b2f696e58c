"""Direct-drive micro benchmarks: one per layer, public API only.

Each driver builds its corpus from the seed, drives one layer's public
entry points with nothing else attached, and returns microseconds per
operation. They exist so that a macro regression can be bisected to a
layer without a profiler (ROADMAP 1b): a change in
``<layer>.micro.*`` should show as the same change in that layer's
``self_s`` on the workload where its share is large.

Every driver runs ``BATCHES`` equal batches and reports the fastest —
the same quiet-time idea as the macro estimator. A driver whose API no
longer resolves reports ``None`` (listed under ``unresolved``) instead of
failing the run.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional

BATCHES = 3


def _fastest_us(batch: Callable[[], int]) -> float:
    """Lowest microseconds-per-op over ``BATCHES`` runs of ``batch``,
    which does its work and returns the number of operations."""
    best = None
    for _ in range(BATCHES):
        t0 = time.perf_counter_ns()
        ops = batch()
        per_op = (time.perf_counter_ns() - t0) / 1e3 / max(ops, 1)
        if best is None or per_op < best:
            best = per_op
    return best


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def sim_us_per_event(rng: random.Random, n: int) -> float:
    from repro.sim import Simulator

    delays = [rng.randrange(1, 1_000_000) for _ in range(n)]
    sink: List[int] = []

    def batch() -> int:
        sim = Simulator()
        for delay in delays:
            sim.schedule(delay, sink.append, delay)
        sim.run_until(1_000_000)
        sink.clear()
        return n

    return _fastest_us(batch)


def sim_us_per_tick(rng: random.Random, n: int) -> float:
    from repro.sim import Simulator

    lanes = 64
    periods = [rng.randrange(9_000, 500_000) for _ in range(lanes)]
    # Horizon at which the lanes together have ticked about n times.
    horizon = int(n / sum(1.0 / p for p in periods))
    count = [0]

    def tick() -> None:
        count[0] += 1

    def batch() -> int:
        sim = Simulator()
        count[0] = 0
        for period in periods:
            sim.schedule_periodic(period, tick)
        sim.run_until(horizon)
        return count[0]

    return _fastest_us(batch)


# ----------------------------------------------------------------------
# net / fronthaul
# ----------------------------------------------------------------------
class _FrameSink:
    def __init__(self) -> None:
        self.frames = 0

    def receive_frame(self, frame: Any, ingress: Any) -> None:
        self.frames += 1


def net_us_per_frame(rng: random.Random, n: int) -> float:
    from repro.net.addresses import MacAddress
    from repro.net.link import Link
    from repro.net.packet import EtherType, EthernetFrame
    from repro.sim import Simulator

    src, dst = MacAddress(0x02_00_00_00_00_01), MacAddress(0x02_00_00_00_00_02)
    sizes = [rng.choice((64, 256, 1500, 7000)) for _ in range(n)]

    def batch() -> int:
        sim = Simulator()
        sink = _FrameSink()
        link = Link(sim, sink, bandwidth_bps=25e9, latency_ns=25_000)
        for size in sizes:
            link.send(EthernetFrame(src, dst, EtherType.ECPRI, None, wire_bytes=size))
        sim.run()
        return sink.frames

    return _fastest_us(batch)


def fronthaul_us_per_packet(rng: random.Random, n: int) -> float:
    from repro.fronthaul import ecpri
    from repro.phy.numerology import SlotAddress

    # Twice as many distinct headers as a third of the corpus repeats:
    # the codec's own memo sees both hits and misses.
    distinct = [
        (rng.randrange(1024), rng.randrange(10), rng.randrange(2), rng.randrange(256))
        for _ in range(max(1, n // 3))
    ]
    corpus = [distinct[rng.randrange(len(distinct))] for _ in range(n)]

    def batch() -> int:
        for frame, subframe, slot, seq in corpus:
            data = ecpri.encode_header(
                ecpri.ECPRI_TYPE_RT_CONTROL, 64, 0, seq,
                SlotAddress(frame=frame, subframe=subframe, slot=slot),
            )
            ecpri.parse_timing_fields(data)
            ecpri.decode_header(data)
        return n

    return _fastest_us(batch)


# ----------------------------------------------------------------------
# phy
# ----------------------------------------------------------------------
def _phy_corpus(rng: random.Random, n: int):
    import numpy as np

    from repro.phy import ChannelRealization, LinkDirection, Modulation, PhyCodec, TransportBlock

    codec = PhyCodec(np.random.default_rng(rng.randrange(1 << 31)))
    modulations = [Modulation.QPSK, Modulation.QAM16, Modulation.QAM64]
    blocks = [
        TransportBlock(
            ue_id=1 + i % 3, direction=LinkDirection.UPLINK, harq_process=i % 8,
            modulation=modulations[rng.randrange(3)], prbs=20, data=None,
            size_bytes=1000, tb_id=1_000 + rng.randrange(1 << 20),
        )
        for i in range(n)
    ]
    # SNRs around each modulation's working point, so decodes mostly
    # succeed after a few belief-propagation iterations, as in the cells.
    snr = {Modulation.QPSK: 8.0, Modulation.QAM16: 15.0, Modulation.QAM64: 21.0}
    realizations = [
        ChannelRealization(snr_db=snr[b.modulation] + rng.uniform(-1.0, 2.0))
        for b in blocks
    ]
    return codec, blocks, realizations


def phy_encode_us_per_block(rng: random.Random, n: int) -> float:
    codec, blocks, _ = _phy_corpus(rng, n)
    slots = [blocks[i:i + 4] for i in range(0, n, 4)]

    def batch() -> int:
        for slot in slots:
            codec.encode_blocks(slot)
        return n

    return _fastest_us(batch)


def phy_channel_us_per_block(rng: random.Random, n: int) -> float:
    codec, blocks, realizations = _phy_corpus(rng, n)
    symbols = codec.encode_blocks(blocks)

    def batch() -> int:
        for row, realization in zip(symbols, realizations):
            codec.channel.apply(row, realization)
        return n

    return _fastest_us(batch)


def phy_decode_us_per_block(rng: random.Random, n: int) -> float:
    codec, blocks, realizations = _phy_corpus(rng, n)
    symbols = codec.encode_blocks(blocks)

    def batch() -> int:
        for block, realization, row in zip(blocks, realizations, symbols):
            codec.decode_block(block, realization, symbols=row)
        return n

    return _fastest_us(batch)


# ----------------------------------------------------------------------
# fapi / core
# ----------------------------------------------------------------------
def fapi_us_per_message(rng: random.Random, n: int) -> float:
    from repro.fapi import codec, messages as m
    from repro.phy import Modulation

    def pdus(cls: type) -> list:
        return [
            cls(ue_id=rng.randrange(1, 4), harq_process=rng.randrange(8),
                modulation=Modulation.QAM16, prbs=rng.randrange(1, 273),
                new_data=True, tb_id=rng.randrange(1 << 30), tb_bytes=rng.randrange(1 << 16))
            for _ in range(rng.randrange(0, 4))
        ]

    corpus = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            corpus.append(m.UlTtiRequest(cell_id=0, slot=i, pdus=pdus(m.PuschPdu)))
        elif kind == 1:
            corpus.append(m.DlTtiRequest(cell_id=0, slot=i, pdus=pdus(m.PdschPdu)))
        else:
            corpus.append(m.SlotIndication(cell_id=0, slot=i))

    def batch() -> int:
        for message in corpus:
            codec.decode_message(codec.encode_message(message))
        return n

    return _fastest_us(batch)


def core_mbox_us_per_packet(rng: random.Random, n: int) -> float:
    from repro.core import FronthaulMiddlebox
    from repro.fronthaul import CplaneMessage
    from repro.net.addresses import MacAddress
    from repro.net.packet import EtherType, EthernetFrame
    from repro.net.switch import Switch
    from repro.phy.numerology import SlotAddress
    from repro.sim import Simulator

    sim = Simulator()
    switch = Switch(sim)
    mbox = FronthaulMiddlebox(sim)
    mbox.install_on(switch)
    ru_mac = MacAddress(0x02_00_00_00_01_00)
    phy_macs = [MacAddress(0x02_00_00_00_02_00 + i) for i in range(2)]
    mbox.register_ru(0, ru_mac, 1, initial_phy=0)
    for phy_id, mac in enumerate(phy_macs):
        mbox.register_phy(phy_id, mac, 2 + phy_id)
    address = SlotAddress(frame=0, subframe=0, slot=0)
    frames = []
    for i in range(n):
        # Mostly the active PHY's heartbeats; one in eight from the
        # standby, which the pipeline filters.
        source = 1 if rng.randrange(8) == 0 else 0
        payload = CplaneMessage(ru_id=0, address=address, abs_slot=i // 4, source_phy_id=source)
        frames.append(
            EthernetFrame(phy_macs[source], MacAddress(0), EtherType.ECPRI, payload, 64)
        )

    def batch() -> int:
        for frame in frames:
            mbox.process(frame, 2, switch)
        return n

    return _fastest_us(batch)


def core_detector_us_per_tick(rng: random.Random, n: int) -> float:
    from repro.core import FailureDetector

    heartbeat_every = [rng.randrange(10, 44) for _ in range(n)]

    def batch() -> int:
        detector = FailureDetector()
        detector.set_monitor(0, True)
        now = 0
        since = 0
        for gap in heartbeat_every:
            now += 9_000
            since += 1
            if since >= gap:
                detector.on_heartbeat(0, now)
                since = 0
            detector.on_timer_tick(now)
        return n

    return _fastest_us(batch)


# ----------------------------------------------------------------------
# l2 / transport
# ----------------------------------------------------------------------
def l2_rlc_us_per_pdu(rng: random.Random, n: int) -> float:
    from repro.l2.rlc import RlcBearerConfig, RlcMode, RlcReceiver, RlcTransmitter

    sizes = [rng.choice((64, 200, 1200, 1500)) for _ in range(n)]
    grants = [rng.randrange(500, 6000) for _ in range(n)]

    def batch() -> int:
        config = RlcBearerConfig(bearer_id=1, mode=RlcMode.UM)
        tx, rx = RlcTransmitter(config), RlcReceiver(config)
        pdus = 0
        for size, grant in zip(sizes, grants):
            tx.enqueue(size, size)
            for pdu in tx.pull(grant):
                rx.on_pdu(pdu)
                pdus += 1
        return pdus

    return _fastest_us(batch)


def transport_tcp_us_per_segment(rng: random.Random, n: int) -> float:
    from repro.sim import Simulator
    from repro.transport.packet import FlowDirection
    from repro.transport.tcp import TcpReceiver, TcpSender

    one_way_ns = 15_000_000
    # One data segment in a hundred is lost, so SACK and RACK do work.
    lost = [rng.randrange(100) == 0 for _ in range(4 * n)]

    def batch() -> int:
        sim = Simulator()
        sent = [0]

        def to_receiver(packet: Any) -> None:
            sent[0] += 1
            if sent[0] < len(lost) and lost[sent[0]]:
                return
            sim.schedule(one_way_ns, receiver.on_segment, packet.payload)

        def to_sender(packet: Any) -> None:
            sim.schedule(one_way_ns, sender.on_ack, packet.payload)

        sender = TcpSender(sim, "micro", 1, 1, FlowDirection.DOWNLINK, transmit=to_receiver)
        receiver = TcpReceiver(sim, "micro", 1, 1, FlowDirection.UPLINK, transmit_ack=to_sender)
        sender.start()
        while sender.stats.segments_sent < n and sim.now < 60_000_000_000:
            sim.run_for(10_000_000)
        sender.stop()
        return sender.stats.segments_sent

    return _fastest_us(batch)


#: metric name -> (driver, operations per batch at scale 1).
DRIVERS: Dict[str, Any] = {
    "sim.micro.us_per_event": (sim_us_per_event, 10_000),
    "sim.micro.us_per_tick": (sim_us_per_tick, 10_000),
    "net.micro.us_per_frame": (net_us_per_frame, 5_000),
    "fronthaul.micro.us_per_packet": (fronthaul_us_per_packet, 5_000),
    "phy.micro.encode_us_per_block": (phy_encode_us_per_block, 200),
    "phy.micro.channel_us_per_block": (phy_channel_us_per_block, 200),
    "phy.micro.decode_us_per_block": (phy_decode_us_per_block, 100),
    "fapi.micro.us_per_message": (fapi_us_per_message, 5_000),
    "core.micro.mbox_us_per_packet": (core_mbox_us_per_packet, 5_000),
    "core.micro.detector_us_per_tick": (core_detector_us_per_tick, 10_000),
    "l2.micro.rlc_us_per_pdu": (l2_rlc_us_per_pdu, 5_000),
    "transport.micro.tcp_us_per_segment": (transport_tcp_us_per_segment, 1_500),
}


def run_all(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Every micro metric; ``scale`` shrinks the corpora (smoke test)."""
    values: Dict[str, Optional[float]] = {}
    unresolved: List[str] = []
    for name, (driver, ops) in DRIVERS.items():
        rng = random.Random(f"{name}:{seed}")
        try:
            values[name] = driver(rng, max(16, int(ops * scale)))
        except (ImportError, AttributeError, TypeError) as exc:
            # The layer's public API moved: report, do not crash.
            values[name] = None
            unresolved.append(f"{name}: {type(exc).__name__}: {exc}")
    return {"micro": values, "unresolved": unresolved}
