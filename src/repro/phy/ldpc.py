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
constructor. Syndrome = XOR of the hard bits at each check's neighbours
(one ``take``, one XOR-fold, one ``count_nonzero``), once before BP and
once per iteration. One BP iteration is ~27 numpy calls: one gather of
variable totals, a 9-ufunc two-smallest network per check (at
``dc = 6``), and one gather-sum of each variable's ``dv`` messages whose
totals serve this iteration's hard decision and the next one's
variable-to-check messages: O(E) per iteration. The live path does not
encode here: ``PhyCodec`` folds CRC24A into one payload -> codeword
generator, which :func:`repro.phy.batch.ldpc_encode_batch` builds once
per code from :meth:`LdpcCode.parity_bits` (the GF(2) product on
bit-packed rows: AND, XOR-fold, byte-parity lookup; numpy has no BLAS for
integers).

Exactness: these kernels replaced a dense-matrix form, kept as
``tests/ldpc_dense.py`` and pinned equal by
``tests/test_phy_kernel_fuzz.py``, and the last per-iteration form, kept
in ``tests/phy_chain_reference.py`` and pinned by
``tests/test_phy_chain_fuzz.py``; they match both bit for bit by
argument, not tolerance. Parity is a popcount mod 2 however it is
folded. The two smallest magnitudes of a check are *selected*, never
computed: every edge receives ``min1`` except its holder, which receives
``min2``, and when several edges tie for the minimum ``min1 == min2``,
so no sort order is needed. A message's sign reaches the other edges of
its check only; when its magnitude is zero those edges receive
``min1 == 0``, so reading ``-0.0`` as negative (``copysign``) changes no
value but the sign of a zero. Each variable's messages are summed in
ascending check order, the order the old scatter-add accumulated them
in (its leading ``0.0 +`` changes only the sign of a zero). The totals
entering iteration ``i + 1`` are the expression that closed iteration
``i``, carried over (iteration 1 starts from the bare LLRs). Signs of
zero reach only ``< 0`` and ``abs``, which treat ``-0.0`` like ``+0.0``.

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
    #: Hard decision at every codeword position (True = bit 1), length n.
    hard_bits: Optional[np.ndarray] = None


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

    Rows ``i`` and ``i + dc // 2`` are paired into a low and a high row
    (an odd last row joins the lows). The smallest is the smallest low;
    the second-smallest is the smaller of the second-smallest low and the
    smallest high, since any high but the minimum's partner is at least
    its own low: a running (low, high) pair over the lows, started from
    the first low and the smallest high, yields both in 9 ufunc calls at
    ``dc = 6``. Values are only ever selected, so a column whose
    minimum occurs twice yields ``low == high``.
    """
    half = len(rows) // 2
    lows = np.minimum(rows[:half], rows[half:2 * half])
    low, high = lows[0], np.minimum.reduce(np.maximum(rows[:half], rows[half:2 * half]))
    for row in (*lows[1:], *rows[2 * half:]):
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
        n: int,
        dv: int,
        dc: int,
        seed: int,
        normalization: float,
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
        # Edge indexing for the decoder. The slot-major (dc, m) copy —
        # row s holds every check's s-th neighbour — puts each per-check
        # reduction along the leading axis, where numpy runs it as dc - 1
        # vector operations instead of m short row loops. Row j of
        # ``_var_edges`` is every variable's j-th edge in ascending check
        # order, as an index into the flat slot-major message array.
        self._neighbours = np.ascontiguousarray(self.chk_to_var.T)
        by_variable = np.argsort(self.chk_to_var.ravel(), kind="stable").reshape(n, dv)
        checks, slots = np.divmod(by_variable, dc)
        self._var_edges = np.ascontiguousarray((slots * self.m + checks).T)

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

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, llr: np.ndarray, max_iterations: int = 8) -> LdpcDecodeResult:
        """Normalized-min-sum BP decode of ``n`` float64 channel LLRs.

        LLR convention: positive LLR favours bit 0.
        """
        if len(llr) != self.n:
            raise ValueError(f"expected {self.n} LLRs, got {len(llr)}")
        neighbours = self._neighbours
        totals = llr
        negative = totals < 0
        converged = not np.count_nonzero(
            np.bitwise_xor.reduce(negative.take(neighbours), axis=0)
        )
        # Messages are slot-major like ``_neighbours``: (dc, m).
        c2v = np.zeros(neighbours.shape, dtype=np.float64)
        iterations = 0
        while not converged and iterations < max_iterations:
            iterations += 1
            # Variable-to-check: each variable's total minus what this
            # check told it.
            v2c = totals.take(neighbours) - c2v
            # Check-node update (normalized min-sum). A zero message's
            # sign reaches only the zero-magnitude messages of its own
            # check (module notes), so ``copysign`` may read -0.0 as -1.
            signs = np.copysign(1.0, v2c)
            row_sign = signs.prod(axis=0)
            magnitude = np.abs(v2c)
            min1, min2 = _two_smallest(magnitude)
            out_mag = np.where(magnitude > min1, min1, min2)
            c2v = self.normalization * row_sign * signs * out_mag
            # Variable-node totals: channel LLR + sum of incoming
            # messages, each variable's in ascending check order.
            totals = llr + np.add.reduce(c2v.take(self._var_edges), axis=0)
            # Hard decision + early stop.
            negative = totals < 0
            converged = not np.count_nonzero(
                np.bitwise_xor.reduce(negative.take(neighbours), axis=0)
            )
        return LdpcDecodeResult(
            negative.take(self._info_cols).view(np.uint8), converged, iterations, negative
        )

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
