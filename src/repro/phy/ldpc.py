"""LDPC forward error correction.

5G NR protects transport blocks with LDPC codes (3GPP TS 38.212). This
module implements a regular LDPC code with:

* deterministic, seeded construction of a (dv, dc)-regular parity-check
  matrix (configuration-model graph with double-edge repair),
* systematic encoding via GF(2) Gaussian elimination, and
* normalized-min-sum belief-propagation decoding over LLRs.

Cost model: every per-codeword kernel walks the Tanner graph's
``E = m * dc`` edges (1,944 by default), never the dense ``m x n``
parity-check matrix (209,952 entries), which exists only inside the
constructor. Syndrome = XOR of the hard bits at each check's neighbours,
once before BP and once per iteration. One BP iteration = one gather of
variable totals, a two-smallest selection per check, and **one**
scatter-add (``bincount``) whose totals serve this iteration's hard
decision and the next one's variable-to-check messages: O(E) per
iteration. Encode = the GF(2) generator product on bit-packed rows
(AND, XOR-fold, byte-parity lookup; numpy has no BLAS for integers, and
a float product would wake BLAS worker threads for a slot-sized batch).

Exactness: these kernels replaced a dense-matrix form, kept as
``tests/ldpc_dense.py`` and pinned equal by
``tests/test_phy_kernel_fuzz.py``; they match it bit for bit by
argument, not tolerance. Parity is a popcount mod 2 however it is
folded. The two smallest magnitudes of a check are *selected*, never
computed: every edge receives ``min1`` except its holder, which receives
``min2``, and when several edges tie for the minimum ``min1 == min2``,
so no sort order is needed. The totals entering iteration ``i + 1`` are
the expression that closed iteration ``i``, carried over (iteration 1
starts from the bare LLRs: the dense form's ``llr + 0.0`` differs only
for ``-0.0``, which ``< 0`` and ``abs`` treat like ``+0.0``). The message
expression and the ``bincount`` edge order, which fixes floating-point
accumulation order, are unchanged.

The decoder's iteration count is a first-class knob: the live-upgrade
experiment (paper Fig 11) emulates "a PHY with better FEC" as a secondary
PHY configured with more decoding iterations, which measurably lowers the
block error rate near the decoding threshold.

Chase-combining HARQ (:mod:`repro.phy.harq`) simply sums received LLRs
across (re)transmissions before calling :meth:`LdpcCode.decode`, so the
retransmission gain is real, and a migrated-away HARQ buffer produces a
real decoding penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class LdpcDecodeResult:
    """Outcome of one belief-propagation decode."""

    #: Hard-decision bits for the information positions (length k).
    info_bits: np.ndarray
    #: True if the decoder converged to a valid codeword (zero syndrome).
    parity_ok: bool
    #: Iterations actually run (early stop on convergence).
    iterations_used: int


def _build_regular_graph(
    n: int, dv: int, dc: int, rng: np.random.Generator
) -> np.ndarray:
    """Build a (dv, dc)-regular bipartite graph as a check-to-variable index matrix.

    Returns an (m, dc) integer array where row j lists the variable nodes
    adjacent to check node j. Double edges are repaired by re-shuffling the
    offending stubs; regular codes at these sizes repair within a few passes.
    """
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv must be divisible by dc (n={n}, dv={dv}, dc={dc})")
    m = n * dv // dc
    stubs = np.repeat(np.arange(n), dv)
    for _ in range(200):
        rng.shuffle(stubs)
        adjacency = stubs.reshape(m, dc)
        # Detect rows with duplicate variable nodes.
        sorted_rows = np.sort(adjacency, axis=1)
        has_dup = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
        if not has_dup.any():
            return adjacency
        # Re-shuffle only the stubs of the duplicate rows together with a
        # random batch of clean stubs so the repair can make progress.
        dup_rows = np.where(has_dup)[0]
        dup_slots = (dup_rows[:, None] * dc + np.arange(dc)).ravel()
        n_extra = min(len(stubs) - len(dup_slots), len(dup_slots) + dc)
        # The clean slots in ascending order, as ``rng.choice`` must see them.
        clean = np.ones(len(stubs), dtype=bool)
        clean[dup_slots] = False
        clean_slots = rng.choice(np.flatnonzero(clean), size=n_extra, replace=False)
        mix = np.concatenate([dup_slots, clean_slots])
        shuffled = stubs[mix]
        rng.shuffle(shuffled)
        stubs[mix] = shuffled
    raise RuntimeError("failed to build a simple regular graph; try another seed")


def _gf2_systemize(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-reduce H over GF(2) into [A | I] form via column pivoting.

    Returns ``(h_reduced, parity_cols, info_cols)`` where ``parity_cols``
    are the pivot columns (one per check) and ``info_cols`` the rest.
    Raises if H is rank-deficient (caller retries with a new graph seed).
    """
    h = h.copy() % 2
    m, n = h.shape
    parity_cols = []
    used = np.zeros(n, dtype=bool)
    for row in range(m):
        # The first column of this row that is set and not yet a pivot.
        free = (h[row] != 0) & ~used
        pivot_col = int(free.argmax())
        if not free[pivot_col]:
            raise np.linalg.LinAlgError("parity-check matrix is rank deficient")
        used[pivot_col] = True
        parity_cols.append(pivot_col)
        # Eliminate this column from all other rows.
        others = h[:, pivot_col].astype(bool)
        others[row] = False
        h[others] ^= h[row]
    info_cols = np.flatnonzero(~used).astype(np.int64)
    return h, np.array(parity_cols, dtype=np.int64), info_cols


#: Parity (popcount mod 2) of every byte value.
_BYTE_PARITY = np.bitwise_xor.reduce(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1), axis=1
)


def _two_smallest(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column-wise smallest and second-smallest of a ``(dc, m)`` array.

    A running (low, high) pair per column; values are only ever selected,
    so a column whose minimum occurs twice yields ``low == high``.
    """
    low = np.minimum(rows[0], rows[1])
    high = np.maximum(rows[0], rows[1])
    for row in rows[2:]:
        high = np.minimum(high, np.maximum(low, row))
        low = np.minimum(low, row)
    return low, high


class LdpcCode:
    """A (dv, dc)-regular LDPC code with systematic encoding and min-sum decoding.

    Parameters
    ----------
    n:
        Codeword length in bits. Default 648 (a standard short-block size).
    dv, dc:
        Variable/check node degrees; (3, 6) gives rate 1/2.
    seed:
        Seed for the deterministic graph construction.
    normalization:
        Normalized-min-sum scaling factor.
    """

    def __init__(
        self,
        n: int = 648,
        dv: int = 3,
        dc: int = 6,
        seed: int = 7,
        normalization: float = 0.8,
    ) -> None:
        self.n = n
        self.dv = dv
        self.dc = dc
        self.seed = seed
        self.normalization = normalization
        rng = np.random.default_rng(seed)
        for attempt in range(50):
            self.chk_to_var = _build_regular_graph(n, dv, dc, rng)
            self.m = self.chk_to_var.shape[0]
            h = np.zeros((self.m, n), dtype=np.uint8)
            rows = np.repeat(np.arange(self.m), dc)
            h[rows, self.chk_to_var.ravel()] = 1
            try:
                h_red, parity_cols, info_cols = _gf2_systemize(h)
            except np.linalg.LinAlgError:
                continue
            self._parity_cols = parity_cols
            self._info_cols = info_cols
            # h_red restricted to the info columns: parity[j] =
            # sum_i h_red[j, info_cols[i]] * u[i] (mod 2). Rows are
            # bit-packed the way ``parity_bits`` packs the info word.
            self._parity_gen = np.packbits(h_red[:, info_cols], axis=1)
            break
        else:
            raise RuntimeError("could not construct a full-rank LDPC code")
        self.k = len(self._info_cols)
        # Edge indexing for the decoder. Check-major flat order fixes the
        # scatter-add's accumulation order; the slot-major (dc, m) copy —
        # row s holds every check's s-th neighbour — puts each per-check
        # reduction along the leading axis, where numpy runs it as dc - 1
        # vector operations instead of m short row loops.
        self._edge_var = self.chk_to_var.ravel()
        self._neighbours = np.ascontiguousarray(self.chk_to_var.T)

    def __reduce__(self):
        # Pickle by construction key: the graph and generator are a pure
        # function of it, and a restored code rejoins the process cache.
        return get_code, (self.n, self.dv, self.dc, self.seed, self.normalization)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def parity_bits(self, info_bits: np.ndarray) -> np.ndarray:
        """Parity bits for ``(..., k)`` info bits (one block or a batch)."""
        packed = np.packbits(info_bits, axis=-1)
        folded = np.bitwise_xor.reduce(
            self._parity_gen & packed[..., np.newaxis, :], axis=-1
        )
        return _BYTE_PARITY[folded]

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode ``k`` information bits into an ``n``-bit codeword."""
        info_bits = np.asarray(info_bits, dtype=np.uint8)
        if info_bits.shape != (self.k,):
            raise ValueError(f"expected {self.k} info bits, got {info_bits.shape}")
        codeword = np.zeros(self.n, dtype=np.uint8)
        codeword[self._info_cols] = info_bits
        codeword[self._parity_cols] = self.parity_bits(info_bits)
        return codeword

    def extract_info(self, codeword: np.ndarray) -> np.ndarray:
        """Pull the information bits out of a codeword."""
        return np.asarray(codeword, dtype=np.uint8)[self._info_cols]

    def syndrome_ok(self, hard_bits: np.ndarray) -> bool:
        """True if ``hard_bits`` (0/1 or boolean) satisfies all parity checks."""
        checks = np.asarray(hard_bits)[self._neighbours]
        return not np.bitwise_xor.reduce(checks, axis=0).any()

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, llr: np.ndarray, max_iterations: int = 8) -> LdpcDecodeResult:
        """Normalized-min-sum BP decode of channel LLRs.

        LLR convention: positive LLR favours bit 0.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.shape != (self.n,):
            raise ValueError(f"expected {self.n} LLRs, got {llr.shape}")
        neighbours = self._neighbours
        totals = llr
        negative = totals < 0
        converged = self.syndrome_ok(negative)
        # Messages are slot-major like ``_neighbours``: (dc, m).
        c2v = np.zeros(neighbours.shape, dtype=np.float64)
        iterations = 0
        while not converged and iterations < max_iterations:
            iterations += 1
            # Variable-to-check: each variable's total minus what this
            # check told it.
            v2c = totals[neighbours] - c2v
            # Check-node update (normalized min-sum); a zero message
            # counts as positive.
            signs = np.where(v2c < 0, -1.0, 1.0)
            row_sign = signs.prod(axis=0)
            magnitude = np.abs(v2c)
            min1, min2 = _two_smallest(magnitude)
            out_mag = np.where(magnitude > min1, min1, min2)
            c2v = self.normalization * row_sign * signs * out_mag
            # Variable-node totals: channel LLR + sum of incoming
            # messages, accumulated in check-major edge order.
            totals = llr + np.bincount(
                self._edge_var, weights=c2v.T.ravel(), minlength=self.n
            )
            # Hard decision + early stop.
            negative = totals < 0
            converged = self.syndrome_ok(negative)
        info_bits = negative[self._info_cols].astype(np.uint8)
        return LdpcDecodeResult(info_bits, converged, iterations)

    @property
    def rate(self) -> float:
        """Code rate k/n."""
        return self.k / self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LdpcCode n={self.n} k={self.k} ({self.dv},{self.dc})-regular>"


#: Process-wide cache of constructed codes (construction costs ~100 ms).
_CODE_CACHE: dict = {}


def get_code(
    n: int = 648, dv: int = 3, dc: int = 6, seed: int = 7,
    normalization: float = 0.8,
) -> LdpcCode:
    """Return a cached :class:`LdpcCode` for the given parameters."""
    key = (n, dv, dc, seed, normalization)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = LdpcCode(n=n, dv=dv, dc=dc, seed=seed, normalization=normalization)
        _CODE_CACHE[key] = code
    return code
