"""The PHY's encode/transmit/decode path.

:class:`PhyCodec` binds together the signal-processing primitives:

    payload bits -> (CRC24 attach -> LDPC encode) -> QAM modulate
        -> AWGN channel at the UE's realized SNR
        -> soft demodulate (LLRs) -> HARQ chase-combine -> LDPC decode
        -> CRC verdict (the transmitted word, or not) -> DecodeOutcome

One representative LDPC codeword is processed per transport block; its
decode fate stands for the block's. The codec also exposes
:meth:`decode_garbage` for the migration window where fronthaul packets
are missing and the PHY effectively decodes noise (paper §4).

SNR measurement: the receiver estimates SNR from the noisy symbols the
way a real channel estimator would (here: directly from the realized
noise variance plus estimation error), and that measurement feeds the
:class:`~repro.phy.snr_filter.SnrMovingAverage`.

Cost model, per TB (live path, ~16 numpy calls outside the decoder):
the codeword comes from a process-wide table keyed by ``(code, tb_id)``;
a miss draws the payload from a bare ``PCG64`` and multiplies it by one
packed payload -> codeword generator (:func:`payload_generator`: CRC24A
is linear, so it folds into the LDPC generator), batched over a slot's
misses. Modulation is one constellation-table gather, the channel one
``normal`` draw, demodulation one gather and one ``minimum.reduce``, and
the verdict one byte comparison of the decoder's hard decision with the
table's codeword. Every float, draw and verdict equals the per-stage
chain kept in ``tests/phy_chain_reference.py``
(``tests/test_phy_chain_fuzz.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.batch import ldpc_encode_batch, modulate_batch
from repro.phy.channel import AwgnChannel, ChannelRealization
from repro.phy.crc import CRC24_BITS, attach_crc_batch
from repro.phy.harq import HarqProcessPool
from repro.phy.ldpc import _BYTE_PARITY, LdpcCode, get_code
from repro.phy.modulation import demodulate_llr, modulate
from repro.phy.transport import DecodeOutcome, TransportBlock

#: Transmitted codewords (payload + CRC24A + parity) by ``(code, tb_id)``,
#: oldest first. Process-wide like ``ldpc._CODE_CACHE`` and for the same
#: reason: a pure function of its key, and in a fleet the encode is
#: usually done by a sibling cell's codec. Bounded by a constant and
#: evicted in insertion order; a miss only recomputes, so no result can
#: depend on the capacity. Entries are read-only arrays.
_CODEWORD_CAPACITY = 4096
_CODEWORDS: "OrderedDict[Tuple[LdpcCode, int], np.ndarray]" = OrderedDict()
#: Table misses so far. Module state, not a ``CodecStats`` field: it
#: depends on what this process ran before, which checkpointed state may not.
payload_derivations = 0
#: Per code: the packed GF(2) generator from payload to codeword (below).
_GENERATORS: Dict[LdpcCode, np.ndarray] = {}


def payload_generator(code: LdpcCode) -> np.ndarray:
    """The bit-packed generator of the map payload ->
    ``code.encode(payload + CRC24A(payload))``: row ``j`` holds byte ``j`` of
    every codeword bit's payload mask, ``(ceil(payload / 8), n)``, so the
    product's XOR-fold runs over the leading axis.

    CRC24A starts from a zero register with no XOR-out, and LDPC
    encoding is a GF(2) product, so the whole transmit word is linear in
    the payload: column ``i`` is the codeword of the ``i``-th unit
    payload, built in one batched pass (one CRC kernel call, one parity
    product). Cached per code object; a restored code is the process
    cache's instance (``LdpcCode.__reduce__``) and finds or rebuilds it.
    """
    generator = _GENERATORS.get(code)
    if generator is None:
        units = np.eye(code.k - CRC24_BITS, dtype=np.uint8)
        codewords = ldpc_encode_batch(code, attach_crc_batch(list(units)))
        generator = np.packbits(codewords, axis=0)
        _GENERATORS[code] = generator
    return generator


@dataclass
class CodecStats:
    """Aggregate decode statistics for one PHY process."""

    blocks_decoded: int = 0
    crc_failures: int = 0
    garbage_decodes: int = 0
    total_decoder_iterations: int = 0


class PhyCodec:
    """Signal-processing engine shared by the PHY process and the UE modem.

    Parameters
    ----------
    rng:
        Noise stream for this receiver.
    decoder_iterations:
        Max LDPC BP iterations — the FEC-quality knob used by the
        live-upgrade experiment (more iterations = better decoding near
        threshold = the "upgraded PHY" of paper Fig 11).
    code:
        LDPC code instance; defaults to the cached n=648 rate-1/2 code.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        decoder_iterations: int = 8,
        code: Optional[LdpcCode] = None,
    ) -> None:
        self.rng = rng
        self.decoder_iterations = decoder_iterations
        self.code = code if code is not None else get_code()
        self.channel = AwgnChannel(rng)
        self.harq = HarqProcessPool()
        self.stats = CodecStats()
        #: Per-codeword payload bits (info bits minus CRC).
        self.payload_bits = self.code.k - CRC24_BITS

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------
    def representative_bits(self, block: TransportBlock) -> np.ndarray:
        """Deterministic payload bits standing in for the block's data.

        Derived from the TB id so retransmissions encode the same bits and
        chase combining is coherent. They equal
        ``default_rng(tb_id).integers(0, 2, size=payload_bits, dtype=uint8)``:
        a bounded ``uint8`` draw of range 2 keeps the top bit of each
        buffered byte of the PCG64 stream.
        """
        raw = np.random.PCG64(block.tb_id).random_raw(-(-self.payload_bits // 8))
        return raw.view(np.uint8)[: self.payload_bits] >> 7

    def _codewords(self, blocks: Sequence[TransportBlock]) -> List[np.ndarray]:
        """Each block's transmitted codeword, derived once per TB: the
        batch's table misses share one generator product."""
        global payload_derivations
        code = self.code
        keys = [(code, block.tb_id) for block in blocks]
        missing = {
            key: block for key, block in zip(keys, blocks) if key not in _CODEWORDS
        }
        if missing:
            payload_derivations += len(missing)
            packed = np.packbits(
                [self.representative_bits(block) for block in missing.values()], axis=1
            )
            derived = _BYTE_PARITY.take(
                np.bitwise_xor.reduce(payload_generator(code) & packed[:, :, None], axis=1)
            )
            derived.setflags(write=False)
            _CODEWORDS.update(zip(missing, derived))
        words = [_CODEWORDS[key] for key in keys]
        while len(_CODEWORDS) > _CODEWORD_CAPACITY:
            _CODEWORDS.popitem(last=False)
        return words

    def encode_block(self, block: TransportBlock) -> np.ndarray:
        """Modulate one representative codeword (payload, CRC, parity)."""
        codeword = _CODEWORDS.get((self.code, block.tb_id))
        if codeword is None:
            (codeword,) = self._codewords([block])
        pad = (-len(codeword)) % block.modulation.bits_per_symbol
        if pad:
            codeword = np.concatenate([codeword, np.zeros(pad, dtype=np.uint8)])
        return modulate(codeword, block.modulation)

    def encode_blocks(
        self, blocks: Sequence[TransportBlock]
    ) -> List[np.ndarray]:
        """Batched :meth:`encode_block` over a slot's transport blocks.

        One generator product (for the codewords not yet in the table)
        and one modulation-table gather per modulation order cover the
        whole batch; element ``i`` is bit-identical to
        ``encode_block(blocks[i])``.
        RNG-free, like :meth:`encode_block`, so callers may hoist it out
        of any per-block loop that draws channel noise without
        perturbing stream order.
        """
        if not blocks:
            return []
        bit_blocks: List[np.ndarray] = []
        for row, block in zip(self._codewords(blocks), blocks):
            pad = (-len(row)) % block.modulation.bits_per_symbol
            if pad:
                row = np.concatenate([row, np.zeros(pad, dtype=np.uint8)])
            bit_blocks.append(row)
        return modulate_batch(bit_blocks, [b.modulation for b in blocks])

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _measure_snr(self, realization: ChannelRealization) -> float:
        """Receiver SNR estimate: true SNR plus estimation error."""
        return realization.snr_db + float(self.rng.normal(0.0, 0.4))

    def decode_block(
        self,
        block: TransportBlock,
        realization: ChannelRealization,
        symbols: Optional[np.ndarray] = None,
    ) -> DecodeOutcome:
        """Run the full receive chain for one transmission of a block.

        ``symbols`` lets a caller supply the transmitted symbols it
        already produced via :meth:`encode_blocks`; omitted, they are
        re-encoded here (identical either way — encoding is RNG-free).
        """
        if symbols is None:
            symbols = self.encode_block(block)
        received = self.channel.apply(symbols, realization)
        llrs = demodulate_llr(received, block.modulation, realization.noise_var)
        llrs = llrs[: self.code.n]
        combined = self.harq.combine(
            block.ue_id, block.harq_process, block.tb_id, llrs, block.new_data
        )
        result = self.code.decode(combined, max_iterations=self.decoder_iterations)
        # A parity-clean decode passes iff it is the transmitted codeword:
        # the encoding is systematic, so that is "CRC valid and payload as
        # sent", since equal payloads have equal CRCs. The encode (here or
        # the caller's) left the word in the table; a miss re-derives it
        # exactly as the encode did.
        crc_ok = False
        if result.parity_ok:
            sent = _CODEWORDS.get((self.code, block.tb_id))
            if sent is None:
                (sent,) = self._codewords([block])
            crc_ok = result.hard_bits.tobytes() == sent.tobytes()
        buf = self.harq.buffer(block.ue_id, block.harq_process)
        combined_transmissions = buf.transmissions
        if crc_ok:
            self.harq.release(block.ue_id, block.harq_process)
        self.stats.blocks_decoded += 1
        self.stats.total_decoder_iterations += result.iterations_used
        if not crc_ok:
            self.stats.crc_failures += 1
        return DecodeOutcome(
            tb_id=block.tb_id,
            ue_id=block.ue_id,
            harq_process=block.harq_process,
            crc_ok=crc_ok,
            measured_snr_db=self._measure_snr(realization),
            decoder_iterations=result.iterations_used,
            combined_transmissions=combined_transmissions,
            data=block.data if crc_ok else None,
        )

    def decode_garbage(self, block: TransportBlock) -> DecodeOutcome:
        """Handle a block whose IQ samples never arrived (lost fronthaul
        packets or a grant the UE never received).

        Models the paper's observation that dropped fronthaul packets make
        the PHY process garbage-valued samples: demodulating pure noise
        cannot pass the CRC. Like a real receiver, the PHY gates HARQ soft
        combining on reference-signal (DMRS) detection, so a slot with no
        detectable transmission reports DTX/CRC-failure *without*
        polluting the process's soft buffer — a later retransmission still
        combines against whatever genuine transmissions preceded it.
        """
        noise_symbols = self.channel.garbage(
            (self.code.n + block.modulation.bits_per_symbol - 1)
            // block.modulation.bits_per_symbol
        )
        # The demodulation happens (and is paid for); DMRS correlation
        # against noise fails, so the LLRs are discarded before combining.
        demodulate_llr(noise_symbols, block.modulation, 1.0)
        self.stats.blocks_decoded += 1
        self.stats.garbage_decodes += 1
        self.stats.crc_failures += 1
        return DecodeOutcome(
            tb_id=block.tb_id,
            ue_id=block.ue_id,
            harq_process=block.harq_process,
            crc_ok=False,
            measured_snr_db=-5.0,
            decoder_iterations=0,
            combined_transmissions=self.harq.buffer(
                block.ue_id, block.harq_process
            ).transmissions,
            data=None,
        )
