"""Deterministic input corpora for the differential and fuzz tests.

Every corpus draws from a reserved ``perf.*`` RngRegistry stream seeded
with :data:`CORPUS_SEED` (the strict ``perf`` namespace of
``repro.analysis.streams``: nothing in ``src/`` draws it), so a corpus
never shares a bit stream with the system under test and is the same on
every machine.
"""

from __future__ import annotations

from typing import Any, List

from repro.fapi import messages as m
from repro.phy.modulation import Modulation
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.rng import RngRegistry

#: Seed of every corpus stream.
CORPUS_SEED = 20260


def build_fapi_corpus(count: int = 400, seed: int = CORPUS_SEED) -> List[m.FapiMessage]:
    """A mixed-message FAPI corpus, one message a slot, eight kinds in turn."""
    rng = RngRegistry(seed).stream("perf.fapi_corpus")
    modulations = list(Modulation)
    messages: List[m.FapiMessage] = []

    def pdus(cls: type, slot: int) -> List[Any]:
        n = int(rng.integers(1, 5))
        return [
            cls(
                ue_id=int(rng.integers(1, 16)),
                harq_process=int(rng.integers(0, 16)),
                modulation=modulations[int(rng.integers(0, len(modulations)))],
                prbs=int(rng.integers(1, 273)),
                new_data=bool(rng.integers(0, 2)),
                tb_id=slot * 16 + i,
                tb_bytes=int(rng.integers(32, 4096)),
                retx_index=int(rng.integers(0, 4)),
            )
            for i in range(n)
        ]

    def blob() -> bytes:
        return bytes(rng.integers(0, 256, size=int(rng.integers(8, 96))).tolist())

    for slot in range(count):
        kind = slot % 8
        if kind == 0:
            messages.append(m.UlTtiRequest(cell_id=0, slot=slot, pdus=pdus(m.PuschPdu, slot)))
        elif kind == 1:
            messages.append(m.DlTtiRequest(cell_id=0, slot=slot, pdus=pdus(m.PdschPdu, slot)))
        elif kind == 2:
            messages.append(
                m.TxDataRequest(
                    cell_id=0, slot=slot,
                    payloads=[(slot * 16 + i, blob()) for i in range(int(rng.integers(1, 4)))],
                )
            )
        elif kind == 3:
            messages.append(
                m.RxDataIndication(
                    cell_id=0, slot=slot,
                    payloads=[
                        (int(rng.integers(1, 16)), int(rng.integers(0, 16)),
                         slot * 16 + i, blob())
                        for i in range(int(rng.integers(1, 4)))
                    ],
                )
            )
        elif kind == 4:
            messages.append(
                m.CrcIndication(
                    cell_id=0, slot=slot,
                    results=[
                        m.CrcResult(
                            ue_id=int(rng.integers(1, 16)),
                            harq_process=int(rng.integers(0, 16)),
                            tb_id=slot * 16 + i,
                            crc_ok=bool(rng.integers(0, 2)),
                            measured_snr_db=float(round(rng.normal(15.0, 3.0), 3)),
                            retx_index=int(rng.integers(0, 4)),
                        )
                        for i in range(int(rng.integers(1, 4)))
                    ],
                )
            )
        elif kind == 5:
            messages.append(
                m.UciIndication(
                    cell_id=0, slot=slot,
                    feedback=[
                        m.HarqFeedback(
                            ue_id=int(rng.integers(1, 16)),
                            harq_process=int(rng.integers(0, 16)),
                            tb_id=slot * 16 + i,
                            ack=bool(rng.integers(0, 2)),
                        )
                        for i in range(int(rng.integers(1, 3)))
                    ],
                    bsr_reports=[(int(rng.integers(1, 16)), int(rng.integers(0, 65536)))],
                )
            )
        elif kind == 6:
            messages.append(m.SlotIndication(cell_id=0, slot=slot))
        else:
            messages.append(
                m.ErrorIndication(
                    cell_id=0, slot=slot,
                    error_code=int(rng.integers(1, 8)), detail="missing TTI request",
                )
            )
    return messages


def phy_slot_corpus(count: int = 24, rng: Any = None) -> List[TransportBlock]:
    """A mixed-modulation uplink slot's transport blocks (``perf.phy_slot``
    unless the caller owns a stream); ``ue_id`` cycles through 1..8."""
    if rng is None:
        rng = RngRegistry(CORPUS_SEED).stream("perf.phy_slot")
    modulations = list(Modulation)
    return [
        TransportBlock(
            ue_id=1 + (i % 8),
            direction=LinkDirection.UPLINK,
            harq_process=i % 16,
            modulation=modulations[int(rng.integers(0, len(modulations)))],
            prbs=int(rng.integers(1, 273)),
            data=None,
            size_bytes=int(rng.integers(32, 4096)),
            new_data=True,
            retx_index=0,
            slot=0,
            tb_id=5000 + i,
        )
        for i in range(count)
    ]
