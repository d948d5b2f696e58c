"""Tests for the PHY codec (full encode/channel/decode chain)."""

import numpy as np
import pytest

from repro.phy.channel import ChannelRealization
from repro.phy.codec import PhyCodec
from repro.phy.modulation import Modulation
from repro.phy.transport import LinkDirection, TransportBlock


def make_block(ue_id=1, harq=0, modulation=Modulation.QAM16, tb_id=None, **kwargs):
    extra = {}
    if tb_id is not None:
        extra["tb_id"] = tb_id
    return TransportBlock(
        ue_id=ue_id,
        direction=LinkDirection.UPLINK,
        harq_process=harq,
        modulation=modulation,
        prbs=100,
        data=b"payload",
        **kwargs,
        **extra,
    )


@pytest.fixture
def codec():
    return PhyCodec(np.random.default_rng(0), decoder_iterations=8)


class TestDecodeChain:
    def test_good_snr_decodes_and_returns_payload(self, codec):
        block = make_block()
        outcome = codec.decode_block(block, ChannelRealization(snr_db=16.0))
        assert outcome.crc_ok
        assert outcome.data == b"payload"
        assert outcome.ue_id == 1

    def test_terrible_snr_fails_crc(self, codec):
        block = make_block(modulation=Modulation.QAM64)
        outcome = codec.decode_block(block, ChannelRealization(snr_db=-2.0))
        assert not outcome.crc_ok
        assert outcome.data is None

    def test_stats_track_failures(self, codec):
        codec.decode_block(make_block(), ChannelRealization(snr_db=16.0))
        codec.decode_block(
            make_block(modulation=Modulation.QAM64, harq=1),
            ChannelRealization(snr_db=-2.0),
        )
        assert codec.stats.blocks_decoded == 2
        assert codec.stats.crc_failures == 1
        assert codec.stats.crc_failures / codec.stats.blocks_decoded == pytest.approx(0.5)

    def test_measured_snr_near_true_snr(self, codec):
        outcomes = [
            codec.decode_block(
                make_block(harq=i % 8), ChannelRealization(snr_db=14.0)
            )
            for i in range(20)
        ]
        measured = np.mean([o.measured_snr_db for o in outcomes])
        assert measured == pytest.approx(14.0, abs=0.5)

    def test_representative_bits_stable_across_retransmissions(self, codec):
        block = make_block()
        retx = block.retransmission(slot=10)
        assert np.array_equal(
            codec.representative_bits(block), codec.representative_bits(retx)
        )

    def test_harq_retransmission_rescues_marginal_block(self):
        """At a marginally-bad SNR, chase combining across a
        retransmission lifts decode success (the §4.2 machinery)."""
        rng = np.random.default_rng(42)
        single_ok = 0
        combined_ok = 0
        trials = 12
        for trial in range(trials):
            codec = PhyCodec(np.random.default_rng(trial), decoder_iterations=8)
            snr = ChannelRealization(snr_db=7.2)
            block = make_block(tb_id=10_000 + trial)
            first = codec.decode_block(block, snr)
            if first.crc_ok:
                single_ok += 1
                continue
            retx = block.retransmission(slot=5)
            second = codec.decode_block(retx, snr)
            if second.crc_ok:
                combined_ok += 1
        assert combined_ok > 0  # Combining rescued some failures.

    def test_success_releases_harq_buffer(self, codec):
        codec.decode_block(make_block(), ChannelRealization(snr_db=16.0))
        assert codec.harq.discard_all() == 0

    def test_failure_retains_harq_buffer(self, codec):
        codec.decode_block(
            make_block(modulation=Modulation.QAM64), ChannelRealization(snr_db=-2.0)
        )
        assert codec.harq.discard_all() == 1


class TestGarbageDecode:
    def test_garbage_always_fails(self, codec):
        for i in range(5):
            outcome = codec.decode_garbage(make_block(harq=i))
            assert not outcome.crc_ok
        assert codec.stats.garbage_decodes == 5

    def test_garbage_does_not_pollute_harq_buffer(self, codec):
        """DMRS gating: a slot with no detectable transmission reports a
        failure but leaves the soft buffer untouched, so later genuine
        retransmissions combine cleanly."""
        block = make_block()
        codec.decode_garbage(block)
        assert not codec.harq.buffer(1, 0).occupied

    def test_retx_after_garbage_decodes_cleanly(self, codec):
        """A retransmission following a DTX slot behaves like a fresh
        transmission at the channel's true quality."""
        block = make_block(tb_id=77_000)
        codec.decode_garbage(block)
        retx = block.retransmission(slot=9)
        outcome = codec.decode_block(retx, ChannelRealization(snr_db=16.0))
        assert outcome.crc_ok


class TestIterationsKnob:
    def test_iteration_budget_changes_bler_near_threshold(self):
        def bler(iterations, trials=25):
            failures = 0
            for trial in range(trials):
                codec = PhyCodec(
                    np.random.default_rng(trial), decoder_iterations=iterations
                )
                block = make_block(tb_id=50_000 + trial)
                outcome = codec.decode_block(block, ChannelRealization(snr_db=9.7))
                if not outcome.crc_ok:
                    failures += 1
            return failures / trials

        assert bler(1) > bler(12)
