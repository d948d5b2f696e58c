"""Differential pins for the per-codeword PHY kernels.

:mod:`repro.phy.ldpc` and :mod:`repro.phy.crc` walk the Tanner graph's
edges and per-byte tables; the dense-matrix LDPC kernels and the CRC
shift register they replaced live on as fixtures (``tests/ldpc_dense.py``,
``tests/crc_serial.py``). Everything here is **exact** equality — bits,
verdicts and iteration counts — because the live decode path feeds the
golden trace digests: one differing hard decision would move them.

Corpora come from reserved ``perf.*`` RngRegistry streams (seed
``CORPUS_SEED``), like ``test_perf_fuzz.py``. The last class is a
structural guard in the spirit of ``test_event_budget.py``: it pins the
*shape* of the cost (no dense array on the code object, no per-bit Python
loop in the CRC), not a wall time.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.perf.benchmarks import CORPUS_SEED
from repro.phy import crc as crc_module
from repro.phy.batch import ldpc_encode_batch
from repro.phy.channel import AwgnChannel, ChannelRealization
from repro.phy.crc import (
    CRC24_BITS,
    attach_crc,
    attach_crc_batch,
    check_crc,
    crc24a,
    crc24a_batch,
)
from repro.phy.ldpc import LdpcCode, get_code
from repro.phy.modulation import Modulation, demodulate_llr, modulate
from repro.sim.rng import RngRegistry
from tests.crc_serial import crc_bits_serial
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
            small = LdpcCode(n=n, dv=dv, dc=dc, seed=11)
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
            assert code.syndrome_ok(word) == dense.syndrome_ok(word)
            assert code.syndrome_ok(word.astype(bool)) == dense.syndrome_ok(word)


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
