"""Tests for LDPC construction, encoding, and BP decoding."""

import hashlib

import numpy as np
import pytest

from repro.phy.channel import AwgnChannel, ChannelRealization
from repro.phy.ldpc import LdpcCode, get_code
from repro.phy.modulation import Modulation, demodulate_llr, modulate


def clean_llr(codeword):
    """A noiseless reception of ``codeword`` (positive LLR favours 0)."""
    return 1.0 - 2.0 * codeword.astype(np.float64)


@pytest.fixture(scope="module")
def code():
    return get_code()


class TestConstruction:
    def test_default_dimensions(self, code):
        assert code.n == 648
        assert code.k == 324
        assert code.rate == pytest.approx(0.5)

    def test_every_codeword_satisfies_parity(self, code):
        rng = np.random.default_rng(0)
        for _ in range(5):
            info = rng.integers(0, 2, code.k, dtype=np.uint8)
            codeword = code.encode(info)
            assert code.decode(clean_llr(codeword), max_iterations=0).parity_ok

    def test_encoding_is_systematic(self, code):
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, code.k, dtype=np.uint8)
        result = code.decode(clean_llr(code.encode(info)), max_iterations=0)
        assert np.array_equal(result.info_bits, info)

    def test_encoding_is_linear(self, code):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, code.k, dtype=np.uint8)
        b = rng.integers(0, 2, code.k, dtype=np.uint8)
        summed = code.encode((a + b) % 2)
        assert np.array_equal(summed, (code.encode(a) + code.encode(b)) % 2)

    def test_same_seed_same_code(self):
        a = LdpcCode(n=96, dv=3, dc=6, seed=11, normalization=0.8)
        b = LdpcCode(n=96, dv=3, dc=6, seed=11, normalization=0.8)
        assert np.array_equal(a.chk_to_var, b.chk_to_var)

    def test_wrong_info_length_rejected(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(code.k + 1, dtype=np.uint8))

    def test_incompatible_degrees_rejected(self):
        with pytest.raises(ValueError):
            LdpcCode(n=100, dv=3, dc=7, seed=7, normalization=0.8)

    def test_cache_returns_same_instance(self):
        assert get_code() is get_code()

    @pytest.mark.parametrize("params, expected", [
        ({}, "95b12cce17d8111954d1288e71f77a45f9aa786328e8903b942c262277242a38"),
        ({"n": 96, "seed": 11},
         "c31df2aa647412f101acbf329456e8ddbc4d057c68bf8934941e0a7b7b7149be"),
    ])
    def test_construction_is_pinned(self, params, expected):
        """The graph and generator hash to the value recorded before the
        construction was vectorised: the same seed draws the same code."""
        code = get_code(**params)
        digest = hashlib.sha256()
        for array in (code.chk_to_var, code._parity_cols, code._info_cols,
                      code._parity_gen):
            digest.update(array.dtype.str.encode())
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == expected


class TestDecoding:
    def test_noiseless_decodes_in_zero_iterations(self, code):
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, code.k, dtype=np.uint8)
        codeword = code.encode(info)
        llr = (1.0 - 2.0 * codeword.astype(np.float64)) * 10.0
        result = code.decode(llr)
        assert result.parity_ok
        assert result.iterations_used == 0
        assert np.array_equal(result.info_bits, info)

    def test_high_snr_decodes_correctly(self, code):
        rng = np.random.default_rng(4)
        channel = AwgnChannel(rng)
        info = rng.integers(0, 2, code.k, dtype=np.uint8)
        symbols = modulate(code.encode(info), Modulation.QPSK)
        realization = ChannelRealization(snr_db=8.0)
        received = channel.apply(symbols, realization)
        llr = demodulate_llr(received, Modulation.QPSK, realization.noise_var)
        result = code.decode(llr, max_iterations=10)
        assert result.parity_ok
        assert np.array_equal(result.info_bits, info)

    def test_hopeless_snr_fails_parity(self, code):
        rng = np.random.default_rng(5)
        channel = AwgnChannel(rng)
        info = rng.integers(0, 2, code.k, dtype=np.uint8)
        symbols = modulate(code.encode(info), Modulation.QAM64)
        realization = ChannelRealization(snr_db=-3.0)
        received = channel.apply(symbols, realization)
        llr = demodulate_llr(received, Modulation.QAM64, realization.noise_var)[: code.n]
        result = code.decode(llr, max_iterations=6)
        assert not result.parity_ok

    def test_more_iterations_lower_bler_near_threshold(self, code):
        """The Fig 11 upgrade lever: iteration budget moves the BLER."""
        rng = np.random.default_rng(6)
        channel = AwgnChannel(rng)

        def bler(iterations, trials=30):
            failures = 0
            for _ in range(trials):
                info = rng.integers(0, 2, code.k, dtype=np.uint8)
                symbols = modulate(code.encode(info), Modulation.QAM16)
                realization = ChannelRealization(snr_db=10.0)
                received = channel.apply(symbols, realization)
                llr = demodulate_llr(
                    received, Modulation.QAM16, realization.noise_var
                )[: code.n]
                result = code.decode(llr, max_iterations=iterations)
                if not (
                    result.parity_ok and np.array_equal(result.info_bits, info)
                ):
                    failures += 1
            return failures / trials

        assert bler(1) > bler(12) + 0.2

    def test_wrong_llr_length_rejected(self, code):
        with pytest.raises(ValueError):
            code.decode(np.zeros(code.n - 1))

    def test_chase_combining_gain(self, code):
        """Summing LLRs of two transmissions decodes where one fails.

        This is the physical basis of HARQ soft combining (§4.2).
        """
        rng = np.random.default_rng(7)
        channel = AwgnChannel(rng)
        snr = ChannelRealization(snr_db=7.0)  # Below 16-QAM threshold.
        single_success = 0
        combined_success = 0
        trials = 25
        for _ in range(trials):
            info = rng.integers(0, 2, code.k, dtype=np.uint8)
            symbols = modulate(code.encode(info), Modulation.QAM16)
            llr1 = demodulate_llr(
                channel.apply(symbols, snr), Modulation.QAM16, snr.noise_var
            )[: code.n]
            llr2 = demodulate_llr(
                channel.apply(symbols, snr), Modulation.QAM16, snr.noise_var
            )[: code.n]
            r1 = code.decode(llr1, max_iterations=8)
            if r1.parity_ok and np.array_equal(r1.info_bits, info):
                single_success += 1
            r2 = code.decode(llr1 + llr2, max_iterations=8)
            if r2.parity_ok and np.array_equal(r2.info_bits, info):
                combined_success += 1
        assert combined_success > single_success
