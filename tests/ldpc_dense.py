"""Dense-matrix LDPC kernels — the pre-sparse implementation, a test fixture.

:mod:`repro.phy.ldpc` evaluates syndrome, parity generation and the
min-sum iteration over the Tanner graph's edges; this is the code it
replaced, verbatim: the 324x648 ``uint8`` parity-check matmul once before
and once per BP iteration, the ``uint8`` generator matmul, two
``bincount`` scatters per iteration and a full ``argsort`` of every
check row. ``tests/test_phy_kernel_fuzz.py`` drives both with the same
LLRs and requires identical bits, verdicts and iteration counts.

The dense matrices are rebuilt here from the runtime code's public
adjacency (``chk_to_var``), so the fixture does not depend on how the
runtime stores its generator.
"""

from __future__ import annotations

import numpy as np

from repro.phy.ldpc import LdpcCode, LdpcDecodeResult, _gf2_systemize


class DenseLdpcCode:
    """The dense-H encode / syndrome / decode of one :class:`LdpcCode`."""

    def __init__(self, code: LdpcCode) -> None:
        self.n, self.m, self.k = code.n, code.m, code.k
        self.dc = code.dc
        self.normalization = code.normalization
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        rows = np.repeat(np.arange(self.m), self.dc)
        h[rows, code.chk_to_var.ravel()] = 1
        h_red, parity_cols, info_cols = _gf2_systemize(h)
        self._h = h
        self._parity_cols = parity_cols
        self._info_cols = info_cols
        self._parity_gen = h_red[:, info_cols].astype(np.uint8)
        self._edge_var = code.chk_to_var.ravel()

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        info_bits = np.asarray(info_bits, dtype=np.uint8)
        if info_bits.shape != (self.k,):
            raise ValueError(f"expected {self.k} info bits, got {info_bits.shape}")
        parity = (self._parity_gen @ info_bits) % 2
        codeword = np.zeros(self.n, dtype=np.uint8)
        codeword[self._info_cols] = info_bits
        codeword[self._parity_cols] = parity
        return codeword

    def syndrome_ok(self, hard_bits: np.ndarray) -> bool:
        return not ((self._h @ hard_bits) % 2).any()

    def decode(self, llr: np.ndarray, max_iterations: int = 8) -> LdpcDecodeResult:
        llr = np.asarray(llr, dtype=np.float64)
        if llr.shape != (self.n,):
            raise ValueError(f"expected {self.n} LLRs, got {llr.shape}")
        m, dc = self.m, self.dc
        edge_var = self._edge_var
        c2v = np.zeros((m, dc), dtype=np.float64)
        hard = (llr < 0).astype(np.uint8)
        iterations = 0
        if self.syndrome_ok(hard):
            info = np.zeros(self.n, dtype=np.uint8)
            info[:] = hard
            return LdpcDecodeResult(info[self._info_cols], True, 0)
        for iterations in range(1, max_iterations + 1):
            # Variable-node totals: channel LLR + sum of incoming messages.
            totals = llr + np.bincount(
                edge_var, weights=c2v.ravel(), minlength=self.n
            )
            v2c = totals[edge_var].reshape(m, dc) - c2v
            # Check-node update (normalized min-sum).
            signs = np.sign(v2c)
            signs[signs == 0] = 1.0
            row_sign = signs.prod(axis=1, keepdims=True)
            magnitude = np.abs(v2c)
            order = np.argsort(magnitude, axis=1)
            min1 = magnitude[np.arange(m), order[:, 0]]
            min2 = magnitude[np.arange(m), order[:, 1]]
            out_mag = np.broadcast_to(min1[:, None], (m, dc)).copy()
            out_mag[np.arange(m), order[:, 0]] = min2
            c2v = self.normalization * row_sign * signs * out_mag
            # Hard decision + early stop.
            totals = llr + np.bincount(
                edge_var, weights=c2v.ravel(), minlength=self.n
            )
            hard = (totals < 0).astype(np.uint8)
            if self.syndrome_ok(hard):
                return LdpcDecodeResult(hard[self._info_cols], True, iterations)
        return LdpcDecodeResult(hard[self._info_cols], False, iterations)
