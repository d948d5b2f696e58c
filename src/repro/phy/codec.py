"""The PHY's encode/transmit/decode path.

:class:`PhyCodec` binds together the signal-processing primitives:

    payload bits -> CRC24 attach -> LDPC encode -> QAM modulate
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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.batch import ldpc_encode_batch, modulate_batch
from repro.phy.channel import AwgnChannel, ChannelRealization
from repro.phy.crc import CRC24_BITS, attach_crc_batch
from repro.phy.harq import HarqProcessPool
from repro.phy.ldpc import LdpcCode, get_code
from repro.phy.modulation import Modulation, demodulate_llr, modulate
from repro.phy.transport import DecodeOutcome, TransportBlock

#: Transmitted info words (payload bits + CRC24A) by ``(payload_bits,
#: tb_id)``, oldest first. Process-wide like ``ldpc._CODE_CACHE`` and for
#: the same reason: a pure function of its key, and in a fleet the encode
#: is usually done by a sibling cell's codec. Bounded by a constant and
#: evicted in insertion order; a miss only recomputes, so no result can
#: depend on the capacity. Entries are read-only arrays.
_INFO_WORD_CAPACITY = 4096
_INFO_WORDS: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
#: Table misses so far. Module state, not a ``CodecStats`` field: it
#: depends on what this process ran before, which checkpointed state may not.
payload_derivations = 0


@dataclass
class CodecStats:
    """Aggregate decode statistics for one PHY process."""

    blocks_decoded: int = 0
    crc_failures: int = 0
    garbage_decodes: int = 0
    total_decoder_iterations: int = 0

    @property
    def block_error_rate(self) -> float:
        if self.blocks_decoded == 0:
            return 0.0
        return self.crc_failures / self.blocks_decoded


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
        chase combining is coherent.
        """
        bit_rng = np.random.default_rng(block.tb_id)
        return bit_rng.integers(0, 2, size=self.payload_bits, dtype=np.uint8)

    def _info_words(self, blocks: Sequence[TransportBlock]) -> List[np.ndarray]:
        """Each block's transmitted info word, derived once per TB: the
        batch's table misses share one CRC kernel call."""
        global payload_derivations
        keys = [(self.payload_bits, block.tb_id) for block in blocks]
        missing = {
            key: block for key, block in zip(keys, blocks) if key not in _INFO_WORDS
        }
        if missing:
            payload_derivations += len(missing)
            derived = attach_crc_batch(
                [self.representative_bits(block) for block in missing.values()]
            )
            for key, word in zip(missing, derived):
                word.setflags(write=False)
                _INFO_WORDS[key] = word
        words = [_INFO_WORDS[key] for key in keys]
        while len(_INFO_WORDS) > _INFO_WORD_CAPACITY:
            _INFO_WORDS.popitem(last=False)
        return words

    def encode_block(self, block: TransportBlock) -> np.ndarray:
        """CRC-attach, LDPC-encode, and modulate one representative codeword."""
        codeword = self.code.encode(self._info_words([block])[0])
        bps = block.modulation.bits_per_symbol
        pad = (-len(codeword)) % bps
        if pad:
            codeword = np.concatenate([codeword, np.zeros(pad, dtype=np.uint8)])
        return modulate(codeword, block.modulation)

    def encode_blocks(
        self, blocks: Sequence[TransportBlock]
    ) -> List[np.ndarray]:
        """Batched :meth:`encode_block` over a slot's transport blocks.

        One CRC gather (for the info words not yet in the table), one
        LDPC generator product, and one modulation-map call per
        modulation order cover the whole batch;
        element ``i`` is bit-identical to ``encode_block(blocks[i])``
        (the batch kernels in :mod:`repro.phy.batch` are pinned to the
        per-block paths).
        RNG-free, like :meth:`encode_block`, so callers may hoist it out
        of any per-block loop that draws channel noise without
        perturbing stream order.
        """
        if not blocks:
            return []
        codewords = ldpc_encode_batch(self.code, self._info_words(blocks))
        bit_blocks: List[np.ndarray] = []
        for row, block in zip(codewords, blocks):
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
        # A parity-clean decode passes iff it is the transmitted word: that is
        # "CRC valid and payload as sent", since equal payloads have equal CRCs.
        # The encode (here or the caller's) left the word in the table; a
        # miss re-derives it exactly as the encode did.
        crc_ok = False
        if result.parity_ok:
            sent = _INFO_WORDS.get((self.payload_bits, block.tb_id))
            if sent is None:
                sent = self._info_words([block])[0]
            crc_ok = bool(np.array_equal(result.info_bits, sent))
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
