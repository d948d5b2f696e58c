"""Differential pins for the per-TB PHY chain against the chain it replaced.

``PhyCodec.encode_blocks`` / ``decode_block`` (both the re-encoding
``symbols=None`` path of the UE and the supplied-symbols path of the PHY)
and ``decode_garbage`` are driven call for call beside
:class:`tests.phy_chain_reference.ReferenceCodec`, from equal RNG seeds:
every ``DecodeOutcome`` field, every HARQ buffer and counter, the codec
counters and the codec RNG's ``bit_generator.state`` must be equal after
each call, and every symbol bit-identical. Sessions cover every
modulation, SNRs across each order's decoding threshold, HARQ
retransmissions, sequences interrupted by a discarded buffer or a TB
mismatch, garbage decodes, the default code and two small ones (one with
an odd check degree and padded symbols).

The two identities the chain rests on are pinned on their own: the
payload bits against ``default_rng(tb_id).integers`` over 10,000+ TB ids,
and one ``normal`` draw of ``2n`` against two of ``n``. The min-sum
decoder is held to the old kernel on LLRs with ``-0.0``, exact zeros
and tied check magnitudes. ``TestMutantsAreCaught`` applies one
hand-made mutant per lever and requires the pins to tell it apart.
"""

from collections import OrderedDict
from dataclasses import astuple

import numpy as np
import pytest

from repro.phy import batch as batch_module
from repro.phy import codec as codec_module
from repro.phy import ldpc as ldpc_module
from repro.phy.channel import AwgnChannel, ChannelRealization
from repro.phy.codec import PhyCodec
from repro.phy.ldpc import LdpcCode, get_code
from repro.phy.modulation import Modulation, modulate
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.rng import RngRegistry
from tests.conftest import mutated
from tests.crc_serial import attach_crc
from tests.corpora import CORPUS_SEED
from tests.phy_chain_reference import ReferenceCodec, decode_reference

#: Roughly where each order stops decoding at rate 1/2 (dB).
THRESHOLDS = {Modulation.BPSK: -1.0, Modulation.QPSK: 2.0,
              Modulation.QAM16: 8.0, Modulation.QAM64: 13.5}
SMALL_CODES = ((96, 3, 6), (150, 3, 5))


def _block(tb_id, modulation, ue_id=1, harq_process=0, new_data=True):
    return TransportBlock(
        ue_id=ue_id, direction=LinkDirection.UPLINK, harq_process=harq_process,
        modulation=modulation, prbs=10, data=("tb", tb_id), new_data=new_data,
        tb_id=tb_id,
    )


def _session(stream, steps):
    """A call script: ``("dl", block, snr)``, ``("ul", [(block, snr)...])``,
    ``("garbage", block)`` or ``("discard",)``. Per (UE, HARQ process)
    the script retransmits its TB until it is acknowledged or has been
    sent four times; some retransmissions carry another TB's id."""
    rng = RngRegistry(CORPUS_SEED).stream(stream)
    modulations = list(Modulation)
    current = {}
    next_tb = [10_000_000 + 100_000 * int(rng.integers(0, 50))]
    script = []

    def pick():
        ue_id, process = 1 + int(rng.integers(0, 3)), int(rng.integers(0, 4))
        held = current.get((ue_id, process))
        if held is not None and held[1] < 4 and rng.random() < 0.6:
            tb_id, sent, modulation = held
            if rng.random() < 0.1:
                tb_id = next_tb[0] = next_tb[0] + 1       # a TB-id mismatch
            current[ue_id, process] = (tb_id, sent + 1, modulation)
            return _block(tb_id, modulation, ue_id, process, new_data=False)
        next_tb[0] += 1
        modulation = modulations[int(rng.integers(0, len(modulations)))]
        current[ue_id, process] = (next_tb[0], 1, modulation)
        return _block(next_tb[0], modulation, ue_id, process)

    def snr(block):
        return THRESHOLDS[block.modulation] + float(rng.uniform(-3.0, 4.0))

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            block = pick()
            script.append(("dl", block, snr(block)))
        elif roll < 0.9:
            blocks = [pick() for _ in range(int(rng.integers(1, 5)))]
            script.append(("ul", [(block, snr(block)) for block in blocks]))
        elif roll < 0.97:
            script.append(("garbage", pick()))
        else:
            script.append(("discard",))
    return script


def _observe(codec, result):
    """Everything a call may change, as comparable plain values."""
    buffers = sorted(
        (key, buf.transmissions, buf.tb_id,
         None if buf.soft_llrs is None else buf.soft_llrs.tobytes())
        for key, buf in codec.harq._buffers.items()
    )
    return (result, buffers, astuple(codec.harq.stats), astuple(codec.stats),
            codec.rng.bit_generator.state)


def _run(codec, script):
    """One observation per call of the script."""
    observations = []
    for call in script:
        if call[0] == "dl":
            _, block, snr_db = call
            result = astuple(codec.decode_block(block, ChannelRealization(snr_db)))
        elif call[0] == "ul":
            blocks = [block for block, _ in call[1]]
            symbols = codec.encode_blocks(blocks)
            result = [row.tobytes() for row in symbols]
            for (block, snr_db), row in zip(call[1], symbols):
                result.append(astuple(
                    codec.decode_block(block, ChannelRealization(snr_db), symbols=row)
                ))
        elif call[0] == "garbage":
            result = astuple(codec.decode_garbage(call[1]))
        else:
            result = codec.harq.discard_all()
        observations.append(_observe(codec, result))
    return observations


def _mismatches(script, code, iterations, seed=7):
    live = _run(PhyCodec(np.random.default_rng(seed), iterations, code), script)
    model = _run(ReferenceCodec(np.random.default_rng(seed), iterations, code), script)
    return sum(a != b for a, b in zip(live, model))


SESSIONS = {
    # name: (stream, steps, code shape or None, decoder iterations)
    "default_8": ("perf.chain_fuzz.default", 160, None, 8),
    "default_2": ("perf.chain_fuzz.budget", 100, None, 2),
    "small_96": ("perf.chain_fuzz.small", 160, SMALL_CODES[0], 8),
    "odd_degree_150": ("perf.chain_fuzz.odd", 160, SMALL_CODES[1], 4),
}


def _code(shape):
    return get_code() if shape is None else get_code(*shape, seed=11)


class TestChainMatchesReference:
    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_session(self, name):
        stream, steps, shape, iterations = SESSIONS[name]
        script = _session(stream, steps)
        code = _code(shape)
        live_codec = PhyCodec(np.random.default_rng(7), iterations, code)
        live = _run(live_codec, script)
        model = _run(ReferenceCodec(np.random.default_rng(7), iterations, code), script)
        for index, (got, want) in enumerate(zip(live, model)):
            assert got == want, (name, index, script[index][0])
        # The script reaches every kind of call, both verdicts, chase
        # combining and interrupted sequences.
        assert {call[0] for call in script} == {"dl", "ul", "garbage", "discard"}
        stats, harq = live_codec.stats, live_codec.harq.stats
        assert stats.garbage_decodes < stats.crc_failures < stats.blocks_decoded
        assert harq.combines > harq.fresh_starts and harq.lost_to_migration > 0


class TestIdentities:
    def test_payload_bits_equal_generator_draws(self):
        """``PCG64(t).random_raw`` bytes' top bits are what
        ``default_rng(t).integers(0, 2, dtype=uint8)`` returns, for the
        default payload (300 bits) and two small ones (24 and 36)."""
        tb_ids = list(range(10_000)) + [2 ** 31 + 5, 2 ** 32 - 1, 2 ** 40 + 3, 10 ** 12]
        for shape in (None, *SMALL_CODES):
            codec = PhyCodec(np.random.default_rng(0), code=_code(shape))
            ids = tb_ids if shape is None else tb_ids[::20]
            for tb_id in ids:
                got = codec.representative_bits(_block(tb_id, Modulation.QPSK))
                want = np.random.default_rng(tb_id).integers(
                    0, 2, size=codec.payload_bits, dtype=np.uint8
                )
                assert got.dtype == want.dtype and np.array_equal(got, want), tb_id

    def test_one_noise_draw_equals_two(self):
        rng = RngRegistry(CORPUS_SEED).stream("perf.chain_fuzz.noise")
        for count in (0, 1, 2, 54, 108, 150, 324, 648):
            for _ in range(6):
                seed = int(rng.integers(0, 2 ** 31))
                symbols = modulate(
                    rng.integers(0, 2, size=2 * count, dtype=np.uint8), Modulation.QPSK
                )
                realization = ChannelRealization(float(rng.uniform(-5.0, 30.0)))
                live, model = AwgnChannel(np.random.default_rng(seed)), ReferenceCodec(
                    np.random.default_rng(seed)
                )
                got = live.apply(symbols, realization)
                want = model.apply_channel(symbols, realization)
                assert got.tobytes() == want.tobytes()
                assert live.garbage(count).tobytes() == model.garbage(count).tobytes()
                assert live.rng.bit_generator.state == model.rng.bit_generator.state

    def test_codewords_equal_encode_of_attach_crc(self, monkeypatch):
        """The generator product against ``encode(attach_crc(payload))``
        for 3,000 TBs of the default code in batches of 1..24 with
        repeated keys, and 300 of each small code."""
        monkeypatch.setattr(codec_module, "_CODEWORDS", OrderedDict())
        rng = RngRegistry(CORPUS_SEED).stream("perf.chain_fuzz.codewords")
        for shape, count in ((None, 3000), (SMALL_CODES[0], 300), (SMALL_CODES[1], 300)):
            codec = PhyCodec(np.random.default_rng(0), code=_code(shape))
            model = ReferenceCodec(np.random.default_rng(0), code=codec.code)
            tb_ids = [int(t) for t in rng.integers(0, 2 ** 40, size=count)]
            start = 0
            while start < count:
                size = 1 + start % 24
                batch = tb_ids[start:start + size] + tb_ids[start:start + 1]
                blocks = [_block(t, Modulation.QPSK) for t in batch]
                for block, word in zip(blocks, codec._codewords(blocks)):
                    want = codec.code.encode(attach_crc(model.representative_bits(block)))
                    assert word.dtype == np.uint8 and np.array_equal(word, want)
                start += size


def _llr_corpus(code, stream, count):
    """Codeword LLRs on a coarse grid (most checks tie for the minimum),
    some flipped, some exact zeros and some ``-0.0``; every fifth one is
    clean, so the first syndrome passes."""
    rng = RngRegistry(CORPUS_SEED).stream(stream)
    grid = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 1.0])
    corpus = []
    for index in range(count):
        clean = 1.0 - 2.0 * code.encode(
            rng.integers(0, 2, size=code.k, dtype=np.uint8)
        ).astype(np.float64)
        if index % 3 == 2:
            llr = clean * 3.0 + rng.normal(0.0, 2.0, size=code.n)
        else:
            llr = clean * np.abs(grid[rng.integers(0, len(grid), size=code.n)])
            flips = rng.random(code.n) < 0.03 * (index % 4)
            llr[flips] = -llr[flips]
        if index % 5 == 4:
            llr = clean * 2.0
        else:
            llr[rng.random(code.n) < 0.04] = 0.0
            llr[rng.random(code.n) < 0.04] = -0.0
        corpus.append(llr)
    return corpus


def _decode_mismatches(code, corpus):
    count = 0
    for llr in corpus:
        for budget in (1, 3, 20):
            got = code.decode(llr, max_iterations=budget)
            want = decode_reference(code, llr, budget)
            count += (
                got.iterations_used != want.iterations_used
                or got.parity_ok != want.parity_ok
                or got.info_bits.dtype != want.info_bits.dtype
                or not np.array_equal(got.info_bits, want.info_bits)
                or got.hard_bits.tobytes() != want.hard_bits.tobytes()
            )
    return count


class TestMinSumMatchesReference:
    @pytest.mark.parametrize("shape", [None, (120, 3, 4), *SMALL_CODES])
    def test_zeros_negative_zeros_and_ties(self, shape):
        code = _code(shape)
        corpus = _llr_corpus(code, "perf.chain_fuzz.minsum", 60)
        assert _decode_mismatches(code, corpus) == 0


# ----------------------------------------------------------------------
# One mutant per lever
# ----------------------------------------------------------------------
_VERDICT = """    if result.parity_ok:
        sent = _CODEWORDS.get((self.code, block.tb_id))
        if sent is None:
            (sent,) = self._codewords([block])
        crc_ok = result.hard_bits.tobytes() == sent.tobytes()
"""

#: name -> (owner, attribute, also patched in, old, new)
MUTANTS = {
    # CRC24A left out of the folded generator.
    "generator_without_crc": (
        codec_module, "payload_generator", (),
        "attach_crc_batch(list(units))",
        "[np.concatenate([unit, np.zeros(CRC24_BITS, dtype=np.uint8)]) for unit in units]",
    ),
    # The payload keeps each byte's low bit, not the bounded draw's top bit.
    "payload_low_bit": (
        PhyCodec, "representative_bits", (), ">> 7", "& 1",
    ),
    # The label weights run LSB first.
    "table_weights_reversed": (
        codec_module, "modulate", (batch_module,), "@ weights]", "@ weights[::-1]]",
    ),
    # The one draw's halves feed the wrong axes.
    "noise_halves_swapped": (
        AwgnChannel, "apply", (), "noise[0] + 1j * noise[1]", "noise[1] + 1j * noise[0]",
    ),
    # The last axis bit reads its minima from each other's level rows.
    "demod_rows_swapped_for_one_bit": (
        codec_module, "demodulate_llr", (),
        "levels, bit_rows = _DEMOD_TABLES[modulation]\n",
        "levels, bit_rows = _DEMOD_TABLES[modulation]; half = len(bit_rows) // 2; "
        "bit_rows = bit_rows[[*range(half - 1), -1, *range(half, 2 * half - 1), half - 1]]\n",
    ),
    # min2 ignores the high rows: the minimum's partner is never seen.
    "min2_ignores_highs": (
        ldpc_module, "_two_smallest", (),
        "np.minimum.reduce(np.maximum(rows[:half], rows[half:2 * half]))",
        "np.full_like(lows[0], np.inf)",
    ),
    # The pre-BP syndrome ORs its checks instead of taking parity.
    "syndrome_or_not_parity": (
        LdpcCode, "decode", (),
        "np.bitwise_xor.reduce(negative.take(neighbours), axis=0)",
        "np.bitwise_or.reduce(negative.take(neighbours), axis=0)",
    ),
    # A zero variable-to-check message sends zero, not +-min.
    "zero_message_silenced": (
        LdpcCode, "decode", (), "np.copysign(1.0, v2c)", "np.sign(v2c)",
    ),
    # The verdict compares the info word only, without parity.
    "verdict_info_without_parity": (
        PhyCodec, "decode_block", (), _VERDICT,
        "    sent = _CODEWORDS.get((self.code, block.tb_id))\n"
        "    if sent is None:\n"
        "        (sent,) = self._codewords([block])\n"
        "    info = self.code._info_cols\n"
        "    crc_ok = result.hard_bits.take(info).tobytes() == sent.take(info).tobytes()\n",
    ),
}


class TestMutantsAreCaught:
    """Each mutant, patched into the live chain with fresh process-wide
    tables, must fail the session pins on the default code and on the
    odd-degree code, or the min-sum pin on its LLR corpus."""

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant(self, name, monkeypatch):
        owner, attribute, also, old, new = MUTANTS[name]
        mutant = mutated(getattr(owner, attribute), old, new)
        for target in (owner, *also):
            monkeypatch.setattr(target, attribute, mutant)
        monkeypatch.setattr(codec_module, "_CODEWORDS", OrderedDict())
        monkeypatch.setattr(codec_module, "_GENERATORS", {})
        caught = _mismatches(_session("perf.chain_fuzz.mutants", 60), _code(None), 2)
        caught += _mismatches(_session("perf.chain_fuzz.mutants", 60), _code(SMALL_CODES[1]), 4)
        code = _code(None)
        caught += _decode_mismatches(code, _llr_corpus(code, "perf.chain_fuzz.minsum", 20))
        assert caught > 0, name

    def test_unmutated_chain_passes_the_same_loop(self, monkeypatch):
        monkeypatch.setattr(codec_module, "_CODEWORDS", OrderedDict())
        caught = _mismatches(_session("perf.chain_fuzz.mutants", 60), _code(None), 2)
        caught += _mismatches(_session("perf.chain_fuzz.mutants", 60), _code(SMALL_CODES[1]), 4)
        code = _code(None)
        caught += _decode_mismatches(code, _llr_corpus(code, "perf.chain_fuzz.minsum", 20))
        assert caught == 0
