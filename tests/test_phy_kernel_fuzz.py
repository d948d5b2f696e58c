"""Differential pins for the per-codeword PHY kernels.

:mod:`repro.phy.ldpc` and :mod:`repro.phy.crc` walk the Tanner graph's
edges and per-byte tables; the dense-matrix LDPC kernels and the CRC
shift register they replaced live on as fixtures (``tests/ldpc_dense.py``,
``tests/crc_serial.py``). Everything here is **exact** equality — bits,
verdicts and iteration counts — because the live decode path feeds the
golden trace digests: one differing hard decision would move them.

The receive chain around the decoder is pinned the same way: the
index-row soft demodulator against the boolean-mask kernels it replaced
and ``PhyCodec.decode_block``'s one-comparison verdict against the old
CRC re-check (both in ``tests/demod_masked.py``), the process-wide
codeword table against a fresh ``encode(attach_crc(payload))``, and three
one-line mutants of the live demodulator that the corpus must tell from
the fixture.

Corpora come from reserved ``perf.*`` RngRegistry streams (seed
``CORPUS_SEED``), like ``test_perf_fuzz.py``. ``TestKernelCostShape`` is
a structural guard in the spirit of ``test_event_budget.py``: it pins the
*shape* of the cost (no dense array on the code object, no per-bit Python
loop in the CRC), not a wall time.
"""

import pickle
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np
import pytest

from repro.phy import codec as codec_module
from repro.phy import crc as crc_module
from repro.phy.batch import ldpc_encode_batch
from repro.phy.channel import AwgnChannel, ChannelRealization
from repro.phy.codec import PhyCodec
from repro.phy.crc import (
    CRC24_BITS,
    attach_crc_batch,
    check_crc,
    crc24a,
    crc24a_batch,
)
from repro.phy.ldpc import LdpcCode, get_code
from repro.phy.modulation import Modulation, demodulate_llr, modulate
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.rng import RngRegistry
from tests.conftest import mutated
from tests.corpora import CORPUS_SEED, phy_slot_corpus
from tests.crc_serial import attach_crc, crc_bits_serial
from tests.demod_masked import (
    demodulate_llr_masked,
    demodulate_with_noise_vector_masked,
    verdict_recheck,
)
from tests.ldpc_dense import DenseLdpcCode

ITERATION_BUDGETS = (1, 8, 20)
MODULATIONS = (Modulation.QPSK, Modulation.QAM16, Modulation.QAM64)


@pytest.fixture(scope="module")
def code():
    return get_code()


@pytest.fixture(scope="module")
def dense(code):
    return DenseLdpcCode(code)


def _assert_same_decode(code, dense, llr, max_iterations):
    got = code.decode(llr, max_iterations=max_iterations)
    want = dense.decode(llr, max_iterations=max_iterations)
    assert got.iterations_used == want.iterations_used
    assert got.parity_ok == want.parity_ok
    assert got.info_bits.dtype == want.info_bits.dtype
    assert np.array_equal(got.info_bits, want.info_bits)
    return got


def _received_llrs(code, rng, channel, codeword, modulation, snr_db):
    pad = (-len(codeword)) % modulation.bits_per_symbol
    bits = np.concatenate([codeword, np.zeros(pad, dtype=np.uint8)])
    realization = ChannelRealization(snr_db=snr_db)
    received = channel.apply(modulate(bits, modulation), realization)
    return demodulate_llr(received, modulation, realization.noise_var)[: code.n]


class TestDecodeMatchesDense:
    def test_channel_llrs_zero_to_nine_db(self, code, dense):
        """1,050 received vectors over 0-9 dB, every third one a HARQ
        chase-combined sum of two or three transmissions."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.decode")
        channel = AwgnChannel(rng)
        converged = failed = iterations = 0
        for index in range(1050):
            info = rng.integers(0, 2, size=code.k, dtype=np.uint8)
            codeword = code.encode(info)
            modulation = MODULATIONS[index % 3]
            transmissions = 1 if index % 3 else int(rng.integers(2, 4))
            llr = sum(
                _received_llrs(
                    code, rng, channel, codeword, modulation,
                    float(rng.uniform(0.0, 9.0)),
                )
                for _ in range(transmissions)
            )
            result = _assert_same_decode(
                code, dense, llr, ITERATION_BUDGETS[(index // 3) % 3]
            )
            iterations += result.iterations_used
            converged += result.parity_ok
            failed += not result.parity_ok
        # The corpus must exercise both exits and real BP work.
        assert converged > 100 and failed > 100
        assert iterations > 2000

    def test_quantized_llrs_force_min_ties_and_zero_messages(self, code, dense):
        """LLRs on a coarse grid make most check rows tie for the
        minimum (min1 == min2); exact and negative zeros are erasures
        whose first variable-to-check message is zero (sign rule
        ``0 -> +1``)."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.ties")
        grid = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 1.0])
        for index in range(150):
            info = rng.integers(0, 2, size=code.k, dtype=np.uint8)
            clean = 1.0 - 2.0 * code.encode(info).astype(np.float64)
            llr = clean * np.abs(grid[rng.integers(0, len(grid), size=code.n)])
            flips = rng.random(code.n) < 0.02 * (index % 5)
            llr[flips] = -llr[flips]
            llr[rng.random(code.n) < 0.05] = 0.0
            llr[rng.random(code.n) < 0.02] = -0.0
            for budget in ITERATION_BUDGETS:
                _assert_same_decode(code, dense, llr, budget)

    def test_all_zero_and_pure_noise_blocks(self, code, dense):
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.noise")
        # All-zero LLRs hard-decide to the all-zero codeword: 0 iterations.
        assert _assert_same_decode(code, dense, np.zeros(code.n), 8).parity_ok
        for _ in range(40):
            llr = rng.normal(0.0, 4.0, size=code.n)
            for budget in ITERATION_BUDGETS:
                result = _assert_same_decode(code, dense, llr, budget)
                assert not result.parity_ok
                assert result.iterations_used == budget

    def test_zero_iteration_budget(self, code, dense):
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.noise")
        result = _assert_same_decode(code, dense, rng.normal(0, 4, code.n), 0)
        assert not result.parity_ok and result.iterations_used == 0

    def test_other_code_shapes(self):
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.shapes")
        for n, dv, dc in ((96, 3, 6), (120, 3, 4), (150, 3, 5)):
            small = LdpcCode(n=n, dv=dv, dc=dc, seed=11, normalization=0.8)
            dense = DenseLdpcCode(small)
            for _ in range(30):
                info = rng.integers(0, 2, size=small.k, dtype=np.uint8)
                codeword = small.encode(info)
                assert np.array_equal(codeword, dense.encode(info))
                llr = (1.0 - 2.0 * codeword) * 2.0 + rng.normal(0, 1.6, size=n)
                _assert_same_decode(small, dense, llr, 8)


class TestEncodeMatchesDense:
    def test_encode_and_batch_byte_identical(self, code, dense):
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.encode")
        words = rng.integers(0, 2, size=(1000, code.k), dtype=np.uint8)
        # Extremes of the parity sums: all-ones drives every sum to its
        # maximum row weight.
        words[0] = 0
        words[1] = 1
        expected = np.stack([dense.encode(word) for word in words])
        singles = np.stack([code.encode(word) for word in words])
        assert singles.dtype == expected.dtype == np.uint8
        assert singles.tobytes() == expected.tobytes()
        start = 0
        while start < len(words):  # every word, in batches of 1..24
            size = 1 + start % 24
            batch = ldpc_encode_batch(code, list(words[start:start + size]))
            assert batch.dtype == np.uint8
            assert batch.tobytes() == expected[start:start + size].tobytes()
            start += size

    def test_syndrome_agrees_on_codewords_and_corruptions(self, code, dense):
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.syndrome")
        for index in range(200):
            word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
            for _ in range(index % 4):
                word[int(rng.integers(0, code.n))] ^= 1
            # A zero-iteration decode reports the received word's syndrome.
            llr = 1.0 - 2.0 * word.astype(np.float64)
            assert code.decode(llr, max_iterations=0).parity_ok == dense.syndrome_ok(word)


class TestCrcMatchesShiftRegister:
    def test_every_length_up_to_400_bits(self):
        """All eight residues mod 8, the live 300-bit payload included."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.crc")
        blocks = [
            rng.integers(0, 2, size=length, dtype=np.uint8)
            for length in range(0, 401)
            for _ in range(2)
        ]
        expected = [crc_bits_serial(block) for block in blocks]
        assert [crc24a(block) for block in blocks] == expected
        batch = crc24a_batch(blocks)
        assert batch.dtype == np.uint32
        assert batch.tolist() == expected

    def test_leading_zero_and_all_one_messages(self):
        for length in (1, 7, 9, 299, 300, 301):
            for fill in (0, 1):
                bits = np.full(length, fill, dtype=np.uint8)
                assert crc24a(bits) == crc_bits_serial(bits)

    def test_attach_batch_on_mixed_length_batches(self):
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.crc_batch")
        for _ in range(60):
            lengths = rng.integers(0, 401, size=int(rng.integers(1, 25)))
            payloads = [
                rng.integers(0, 2, size=int(length), dtype=np.uint8)
                for length in lengths
            ]
            for payload, block in zip(payloads, attach_crc_batch(payloads)):
                assert block.dtype == np.uint8
                assert np.array_equal(block, attach_crc(payload))
                assert len(block) == len(payload) + CRC24_BITS
                assert check_crc(block) == (len(payload) > 0)
                if len(payload):
                    block[int(rng.integers(0, len(block)))] ^= 1
                    assert not check_crc(block)

    def test_empty_batch(self):
        assert crc24a_batch([]).shape == (0,)
        assert attach_crc_batch([]) == []


# ----------------------------------------------------------------------
# Soft demodulation: index rows against boolean masks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DemodCase:
    modulation: Modulation
    symbols: np.ndarray
    noise: Union[float, np.ndarray]
    kind: str


#: Noise variances at and below the 1e-12 clamp of ``demodulate_llr``.
CLAMPED_NOISE = (1e-12, 9.9e-13, 1e-15, 1e-300, 0.0)
#: Symbols of one 648-bit codeword, per modulation.
BLOCK_SYMBOLS = {modulation: -(-648 // modulation.bits_per_symbol) for modulation in Modulation}


def _demod_corpus():
    rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.demod")
    cases = []
    for modulation in Modulation:
        lengths = [0, 1, 3, 55, BLOCK_SYMBOLS[modulation]]
        lengths += [int(rng.integers(2, 400)) for _ in range(7)]
        for round_index, length in enumerate(lengths * 2):
            bits = rng.integers(0, 2, size=length * modulation.bits_per_symbol, dtype=np.uint8)
            sigma = float(10.0 ** rng.uniform(-3.0, 0.5))
            symbols = modulate(bits, modulation) + sigma * (
                rng.normal(size=length) + 1j * rng.normal(size=length)
            )
            # The origin: every bit's two minima tie.
            symbols[rng.random(length) < 0.05] = 0.0
            scalar = float(10.0 ** rng.uniform(-3.0, np.log10(2.0)))
            vector = 10.0 ** rng.uniform(-3.0, np.log10(2.0), size=length)
            clamped = vector.copy()
            clamped[rng.random(length) < 0.3] = CLAMPED_NOISE[round_index % len(CLAMPED_NOISE)]
            for kind, noise in (
                ("scalar", scalar),
                ("per_symbol", vector),
                ("clamped_scalar", CLAMPED_NOISE[round_index % len(CLAMPED_NOISE)]),
                ("clamped_per_symbol", clamped),
            ):
                cases.append(DemodCase(modulation, symbols, noise, kind))
    return cases


DEMOD_CORPUS = _demod_corpus()


def _masked(case: DemodCase) -> np.ndarray:
    """What the replaced kernels return; a noise vector is clamped per
    entry with the builtin ``max``, as ``demodulate_llr_batch`` did."""
    if np.ndim(case.noise) == 0:
        return demodulate_llr_masked(case.symbols, case.modulation, case.noise)
    noise = np.array([max(value, 1e-12) for value in case.noise], dtype=np.float64)
    return demodulate_with_noise_vector_masked(case.symbols, case.modulation, noise)


def _differs(demodulate, case: DemodCase) -> bool:
    """True unless ``demodulate`` returns the fixture's floats, bit for bit."""
    with np.errstate(all="ignore"):
        got = demodulate(case.symbols, case.modulation, case.noise)
        want = _masked(case)
    return (
        got.dtype != want.dtype
        or got.shape != want.shape
        or not np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )


class TestDemodMatchesMasked:
    def test_every_case_is_bit_identical(self):
        for case in DEMOD_CORPUS:
            assert not _differs(demodulate_llr, case), (
                case.modulation, len(case.symbols), case.kind
            )

    def test_corpus_census(self):
        """Every (modulation x noise kind) cell, and in each the empty,
        single-symbol, odd and one-codeword lengths."""
        census = Counter((case.modulation.name, case.kind) for case in DEMOD_CORPUS)
        print("demod corpus (modulation x noise kind):", dict(census))
        assert len(census) == 4 * 4 and min(census.values()) >= 24
        for modulation in Modulation:
            lengths = {len(c.symbols) for c in DEMOD_CORPUS if c.modulation is modulation}
            assert {0, 1, 3, 55, BLOCK_SYMBOLS[modulation]} <= lengths
        assert any(
            np.ndim(c.noise) and (c.noise < 1e-12).any() and (c.noise > 1e-12).any()
            for c in DEMOD_CORPUS
        )


DEMOD_MUTANTS = {
    # The last axis bit reads its minima from each other's level rows.
    "bit_rows_swapped_for_one_bit": (
        "levels, bit_rows = _DEMOD_TABLES[modulation]\n",
        "levels, bit_rows = _DEMOD_TABLES[modulation]; half = len(bit_rows) // 2; "
        "bit_rows = bit_rows[[*range(half - 1), -1, *range(half, 2 * half - 1), half - 1]]\n",
    ),
    # The Q halves of the distance rows are filled from I and vice versa.
    "i_and_q_halves_swapped": (
        "np.concatenate([symbols.real, symbols.imag])",
        "np.concatenate([symbols.imag, symbols.real])",
    ),
    # A zero or denormal noise variance reaches the division.
    "clamp_dropped": (
        "noise_var = np.maximum(noise_var, 1e-12)",
        "noise_var = np.asarray(noise_var, dtype=np.float64)",
    ),
}


class TestDemodMutantsAreCaught:
    """Cases of the 384 that tell each mutant from the fixture: row sets
    swapped for one bit 260, I and Q halves swapped 260 (of the 264
    non-empty non-BPSK cases; the other four are a single symbol at the
    origin, where every minimum ties), clamp dropped 133 (the non-empty
    cases holding a variance below 1e-12 next to a non-zero distance
    difference; 1e-12 itself is the clamp's fixed point)."""

    CAUGHT = {
        "bit_rows_swapped_for_one_bit": 260,
        "i_and_q_halves_swapped": 260,
        "clamp_dropped": 133,
    }

    def test_unmutated_code_passes_the_same_loop(self):
        assert self.caught(demodulate_llr) == 0

    @pytest.mark.parametrize("name", sorted(DEMOD_MUTANTS))
    def test_mutant(self, name):
        caught = self.caught(mutated(demodulate_llr, *DEMOD_MUTANTS[name]))
        assert caught == self.CAUGHT[name], f"{name}: {caught} cases differ"

    @staticmethod
    def caught(demodulate) -> int:
        return sum(_differs(demodulate, case) for case in DEMOD_CORPUS)


# ----------------------------------------------------------------------
# The transmitted word: one table, one comparison
# ----------------------------------------------------------------------
def _block(tb_id, modulation=Modulation.QPSK, ue_id=1, harq_process=0):
    return TransportBlock(
        ue_id=ue_id, direction=LinkDirection.UPLINK, harq_process=harq_process,
        modulation=modulation, prbs=10, data=b"x", tb_id=tb_id,
    )


def _fresh_word(codec, block):
    return codec.code.encode(attach_crc(codec.representative_bits(block)))


@pytest.fixture
def empty_table():
    """The process-wide table, emptied for the test and afterwards."""
    codec_module._CODEWORDS.clear()
    yield codec_module._CODEWORDS
    codec_module._CODEWORDS.clear()


class TestVerdictMatchesRecheck:
    def test_constructed_words(self, empty_table):
        """Old and new verdict on the transmitted word and on each way of
        not being it, for 60 TBs. The decoder hands the verdict a
        parity-clean hard decision, so each ``k``-bit info word enters
        as its codeword; the new verdict compares that with the table's
        codeword, the old one re-checks the info word's CRC and payload."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.verdict")
        codec = PhyCodec(np.random.default_rng(0))
        code = codec.code
        census = Counter()
        for tb_id in range(7000, 7060):
            block = _block(tb_id)
            (sent,) = codec._codewords([block])
            payload = codec.representative_bits(block)
            info = code.decode(1.0 - 2.0 * sent, max_iterations=0).info_bits
            payload_flip = info.copy()
            payload_flip[int(rng.integers(0, codec.payload_bits))] ^= 1
            crc_flip = info.copy()
            crc_flip[codec.payload_bits + int(rng.integers(0, CRC24_BITS))] ^= 1
            other_valid = attach_crc(codec.representative_bits(_block(tb_id + 1000)))
            words = {
                "transmitted": info.copy(),
                "payload_bit_flipped": payload_flip,
                "crc_bit_flipped": crc_flip,
                "different_valid_word": other_valid,
            }
            assert check_crc(other_valid) and not np.array_equal(other_valid, info)
            for name, word in words.items():
                hard = code.encode(word).astype(bool)
                new = hard.tobytes() == sent.tobytes()
                assert new == verdict_recheck(word, payload, codec.payload_bits), name
                census[name, new] += 1
        assert census == {
            (name, name == "transmitted"): 60 for name in words
        }

    def test_live_decodes(self, code, empty_table, monkeypatch):
        """``decode_block`` against the old expression evaluated on what
        the decoder returned: clean passes, parity failures near
        threshold, and a parity-clean decode of another TB's codeword."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.verdict_live")
        codec = PhyCodec(np.random.default_rng(CORPUS_SEED))
        returned = []
        decode = LdpcCode.decode

        def recording(self, llr, max_iterations):
            returned.append(decode(self, llr, max_iterations=max_iterations))
            return returned[-1]

        monkeypatch.setattr(LdpcCode, "decode", recording)
        thresholds = {Modulation.BPSK: -1.0, Modulation.QPSK: 2.0,
                      Modulation.QAM16: 8.0, Modulation.QAM64: 13.5}
        census = Counter()
        for index in range(240):
            modulation = list(Modulation)[index % 4]
            block = _block(8000 + index, modulation, harq_process=index % 16)
            if index % 6 == 5:   # the air carries some other TB, loud and clear
                symbols = codec.encode_block(_block(9000 + index, modulation))
                snr_db = thresholds[modulation] + 8.0
            else:
                symbols = codec.encode_block(block)
                snr_db = thresholds[modulation] + float(rng.uniform(-1.5, 2.5))
            outcome = codec.decode_block(
                block, ChannelRealization(snr_db=snr_db), symbols=symbols
            )
            result = returned[-1]
            assert len(result.info_bits) == code.k
            old = result.parity_ok and verdict_recheck(
                result.info_bits, codec.representative_bits(block), codec.payload_bits
            )
            assert outcome.crc_ok == old
            census[result.parity_ok, outcome.crc_ok] += 1
            codec.harq.release(block.ue_id, block.harq_process)
        assert len(returned) == 240
        assert census[True, True] >= 60      # decoded and correct
        assert census[False, False] >= 30    # parity never held
        assert census[True, False] == 40     # a codeword, but not the one sent
        assert census[False, True] == 0


class TestCodewordTable:
    def test_hit_equals_a_fresh_derivation_also_after_eviction(self, empty_table, monkeypatch):
        monkeypatch.setattr(codec_module, "_CODEWORD_CAPACITY", 8)
        codec = PhyCodec(np.random.default_rng(0))
        blocks = [_block(tb_id) for tb_id in range(100, 120)]
        before = codec_module.payload_derivations
        for block in blocks:                      # 20 misses through a table of 8
            assert np.array_equal(codec._codewords([block])[0], _fresh_word(codec, block))
            assert len(empty_table) <= 8
        assert codec_module.payload_derivations - before == 20
        assert list(empty_table) == [(codec.code, t) for t in range(112, 120)]
        for block in blocks[12:]:                 # the survivors hit
            word = codec._codewords([block])[0]
            assert np.array_equal(word, _fresh_word(codec, block))
            assert not word.flags.writeable
        assert codec_module.payload_derivations - before == 20
        (word,) = codec._codewords(blocks[:1])    # evicted, derived again
        assert np.array_equal(word, _fresh_word(codec, blocks[0]))
        assert codec_module.payload_derivations - before == 21
        assert list(empty_table)[-1] == (codec.code, 100)

    def test_batch_larger_than_the_table_and_repeated_keys(self, empty_table, monkeypatch):
        monkeypatch.setattr(codec_module, "_CODEWORD_CAPACITY", 8)
        codec = PhyCodec(np.random.default_rng(0))
        blocks = [_block(200 + index % 15) for index in range(40)]
        calls = []
        generator = codec_module.payload_generator
        monkeypatch.setattr(
            codec_module, "payload_generator",
            lambda code: calls.append(code) or generator(code),
        )
        before = codec_module.payload_derivations
        words = codec._codewords(blocks)
        assert calls == [codec.code]              # one product, distinct TBs only
        assert codec_module.payload_derivations - before == 15
        for block, word in zip(blocks, words):
            assert np.array_equal(word, _fresh_word(codec, block))
        assert len(empty_table) == 8
        for batch, single in zip(codec.encode_blocks(blocks), blocks):
            assert np.array_equal(batch, codec.encode_block(single))

    def test_capacity_is_respected_in_insertion_order(self, empty_table):
        codec = PhyCodec(np.random.default_rng(0))
        capacity = codec_module._CODEWORD_CAPACITY
        assert capacity == 4096
        for start in range(0, capacity + 50, 64):
            codec._codewords([_block(tb_id) for tb_id in range(start, start + 64)])
            assert len(empty_table) <= capacity
        last = start + 64
        assert list(empty_table) == [
            (codec.code, tb_id) for tb_id in range(last - capacity, last)
        ]

    def test_key_includes_the_code(self, empty_table):
        small = PhyCodec(
            np.random.default_rng(0),
            code=LdpcCode(n=96, dv=3, dc=6, seed=11, normalization=0.8),
        )
        full = PhyCodec(np.random.default_rng(0))
        block = _block(300)
        assert np.array_equal(small._codewords([block])[0], _fresh_word(small, block))
        assert np.array_equal(full._codewords([block])[0], _fresh_word(full, block))
        assert len(empty_table) == 2

    def test_decode_of_a_tb_this_process_encoded_derives_nothing(self, empty_table):
        """The encode is a sibling codec's, as in a fleet; neither the
        clean decode nor a parity failure of a never-encoded TB derives."""
        sender = PhyCodec(np.random.default_rng(1))
        receiver = PhyCodec(np.random.default_rng(2))
        blocks = [_block(400 + i, list(Modulation)[i % 4], harq_process=i) for i in range(12)]
        symbols = sender.encode_blocks(blocks)
        sender.encode_blocks(blocks)              # a retransmission's encode
        assert len(empty_table) == 12
        before = codec_module.payload_derivations
        for block, row in zip(blocks, symbols):
            outcome = receiver.decode_block(block, ChannelRealization(snr_db=25.0), symbols=row)
            assert outcome.crc_ok
        stranger = _block(999, harq_process=15)
        outcome = receiver.decode_block(
            stranger, ChannelRealization(snr_db=-8.0), symbols=symbols[1]
        )
        assert not outcome.crc_ok and outcome.decoder_iterations == receiver.decoder_iterations
        assert codec_module.payload_derivations == before
        assert (receiver.code, 999) not in empty_table

    def test_receive_chain_corpus_keeps_its_operating_point(self, empty_table):
        """96 mixed-modulation blocks a little above each decoding
        threshold, decoded eight times over (HARQ combining on the
        repeats): 2,244 BP iterations for 768 decodes (2.922 a block),
        no block error, and not one derivation — the encode filled the
        table."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.phy_rx")
        blocks = phy_slot_corpus(96, rng)
        base_snr_db = {Modulation.BPSK: 0.5, Modulation.QPSK: 3.5,
                       Modulation.QAM16: 9.5, Modulation.QAM64: 15.0}
        realizations = [
            ChannelRealization(snr_db=base_snr_db[b.modulation] + float(rng.uniform(0.0, 1.5)))
            for b in blocks
        ]
        codec = PhyCodec(np.random.default_rng(CORPUS_SEED))
        symbols = codec.encode_blocks(blocks)
        before = codec_module.payload_derivations
        for _ in range(8):
            for block, realization, row in zip(blocks, realizations, symbols):
                codec.decode_block(block, realization, symbols=row)
        stats = codec.stats
        assert (stats.blocks_decoded, stats.total_decoder_iterations) == (768, 2244)
        assert stats.crc_failures == 0
        assert codec_module.payload_derivations == before


def _python_lines_executed(filename, call):
    """Line events ``call()`` triggers in ``filename`` (deterministic)."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != filename:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


class TestKernelCostShape:
    def test_code_object_holds_no_dense_matrix(self, code):
        """Nothing the size of the m x n parity-check matrix survives
        construction; the adjacency list is the graph."""
        dense_size = code.m * code.n
        arrays = {
            name: value for name, value in vars(code).items()
            if isinstance(value, np.ndarray)
        }
        assert "chk_to_var" in arrays
        for name, array in arrays.items():
            assert array.size < dense_size, f"LdpcCode.{name} is dense-H sized"
        # All of it together is smaller than the uint8 H alone was.
        assert sum(a.nbytes for a in arrays.values()) < dense_size

    def test_crc_python_work_is_independent_of_length(self):
        """No per-bit (or per-byte) Python loop: a 300-bit payload — not a
        byte multiple — runs exactly the Python lines a 3,004-bit one
        does (one more than a byte-aligned one), and the bit-serial
        function is gone."""
        assert not hasattr(crc_module, "_crc_bits_serial")
        crc24a(np.ones(4096, dtype=np.uint8))  # grow the position tables
        filename = crc_module.__file__
        lines = {
            length: _python_lines_executed(
                filename, lambda: crc24a(np.ones(length, dtype=np.uint8))
            )
            for length in (300, 3004)
        }
        assert lines[300] == lines[3004] <= 12
        aligned = _python_lines_executed(
            filename, lambda: crc24a(np.ones(304, dtype=np.uint8))
        )
        assert lines[300] - aligned <= 1  # the left-pad concatenate

    def test_decode_python_work_is_linear_in_iterations(self, code):
        """Per-iteration Python work is a fixed number of numpy calls
        (measured: 31 lines, 3 of them per check-degree slot)."""
        rng = RngRegistry(CORPUS_SEED).stream("perf.kernel_fuzz.noise")
        llr = rng.normal(0.0, 4.0, size=code.n)
        filename = sys.modules[LdpcCode.__module__].__file__
        lines = {
            budget: _python_lines_executed(
                filename, lambda: code.decode(llr, max_iterations=budget)
            )
            for budget in (1, 2, 9)
        }
        per_iteration = lines[2] - lines[1]
        assert 0 < per_iteration <= 40
        assert lines[9] - lines[1] == 8 * per_iteration


class TestPickleByConstructionKey:
    def test_restored_code_is_the_cached_instance(self, code):
        blob = pickle.dumps(code, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 200
        assert pickle.loads(blob) is code

    def test_uncached_code_round_trips_through_the_cache(self):
        small = LdpcCode(n=96, dv=3, dc=6, seed=11, normalization=0.75)
        restored = pickle.loads(pickle.dumps(small))
        assert (restored.n, restored.seed, restored.normalization) == (96, 11, 0.75)
        assert np.array_equal(restored.chk_to_var, small.chk_to_var)
        assert restored is get_code(n=96, dv=3, dc=6, seed=11, normalization=0.75)
