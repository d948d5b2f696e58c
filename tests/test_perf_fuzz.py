"""Deterministic fuzz round-trips for the FAPI and eCPRI codecs.

These tests drive ~1k randomized messages — generated from reserved
:class:`~repro.sim.rng.RngRegistry` streams, so the corpus is identical
on every run and every machine — through the codecs and require:

* encode -> decode -> encode is byte-identical (the codec is a bijection
  on its wire image), and decoded TTI PDUs keep every field;
* every decoded message equals its original field for field (CRC SNRs
  at the wire's float32 precision) and, built through its constructor,
  carries a fresh ``message_id``;
* the analytic ``wire_size`` equals the encoding's length;
* eCPRI's ``parse_timing_fields`` (the P4-parser arithmetic) agrees with
  the full header decode.
"""

import dataclasses
import struct

import pytest

from repro.core.orion import UDP_OVERHEAD_BYTES, OrionDatagram
from repro.fapi import codec
from repro.fapi import messages as m
from repro.fronthaul import ecpri
from repro.phy.numerology import SlotAddress
from repro.sim.rng import RngRegistry
from tests.corpora import build_fapi_corpus

#: Seed reserved for codec fuzzing (distinct from the benchmark corpus).
FUZZ_SEED = 77_2026


@pytest.fixture(scope="module")
def fapi_corpus():
    return build_fapi_corpus(count=1_000, seed=FUZZ_SEED)


class TestFapiCodecFuzz:
    def test_encode_decode_encode_is_byte_identical(self, fapi_corpus):
        for message in fapi_corpus:
            data = codec.encode_message(message)
            decoded = codec.decode_message(data)
            assert codec.encode_message(decoded) == data

    def test_decoded_messages_equal_their_originals(self, fapi_corpus):
        def float32(value):
            return struct.unpack(">f", struct.pack(">f", value))[0]

        def fields(message):
            values = {k: v for k, v in vars(message).items() if k != "message_id"}
            if isinstance(message, m.CrcIndication):
                values["results"] = [
                    dataclasses.replace(r, measured_snr_db=float32(r.measured_snr_db))
                    for r in message.results
                ]
            return values

        for message in fapi_corpus:
            decoded = codec.decode_message(codec.encode_message(message))
            assert type(decoded) is type(message)
            assert fields(decoded) == fields(message)

    def test_decoded_messages_get_fresh_message_ids(self, fapi_corpus):
        # The ids come from the constructor's default factory, so each
        # decode draws a new, larger one than any message built before it.
        last_id = max(message.message_id for message in fapi_corpus)
        for message in fapi_corpus:
            decoded = codec.decode_message(codec.encode_message(message))
            assert decoded.message_id > last_id
            last_id = decoded.message_id

    def test_wire_size_matches_encoding_for_bytes_payloads(self, fapi_corpus):
        # The whole corpus uses bytes payloads, where the declared wire
        # size must equal the actual encoding length.
        for message in fapi_corpus:
            assert codec.wire_size(message) == len(codec.encode_message(message))

    def test_orion_datagram_wire_bytes_is_fixed_at_construction(self, fapi_corpus):
        # Computed once, not per read: the value every hop sees is the
        # analytic size at the moment the datagram was built.
        for index, message in enumerate(fapi_corpus):
            datagram = OrionDatagram(message, phy_id=index % 4, is_response=bool(index % 2))
            expected = UDP_OVERHEAD_BYTES + codec.wire_size(message)
            assert datagram.wire_bytes == expected
            assert vars(datagram)["wire_bytes"] == expected

    def test_decoded_tti_pdus_preserve_fields(self, fapi_corpus):
        for message in fapi_corpus:
            if not isinstance(message, (m.UlTtiRequest, m.DlTtiRequest)):
                continue
            decoded = codec.decode_message(codec.encode_message(message))
            assert len(decoded.pdus) == len(message.pdus)
            for original, round_tripped in zip(message.pdus, decoded.pdus):
                assert round_tripped.ue_id == original.ue_id
                assert round_tripped.harq_process == original.harq_process
                assert round_tripped.modulation is original.modulation
                assert round_tripped.prbs == original.prbs
                assert round_tripped.new_data == original.new_data
                assert round_tripped.tb_id == original.tb_id
                assert round_tripped.tb_bytes == original.tb_bytes
                assert round_tripped.retx_index == original.retx_index


def _random_headers(count: int = 1_000):
    rng = RngRegistry(FUZZ_SEED).stream("fuzz.ecpri_headers")
    for _ in range(count):
        yield dict(
            message_type=(
                ecpri.ECPRI_TYPE_IQ_DATA
                if rng.integers(0, 2) else ecpri.ECPRI_TYPE_RT_CONTROL
            ),
            payload_bytes=int(rng.integers(0, 65_536)),
            eaxc_id=int(rng.integers(0, 65_536)),
            sequence=int(rng.integers(0, 256)),
            address=SlotAddress(
                frame=int(rng.integers(0, 1024)),
                subframe=int(rng.integers(0, 10)),
                slot=int(rng.integers(0, 64)),
            ),
            symbol=int(rng.integers(0, 14)),
            section_type=(
                ecpri.SECTION_TYPE_UL if rng.integers(0, 2) else ecpri.SECTION_TYPE_DL
            ),
        )


class TestEcpriHeaderFuzz:
    def test_encode_decode_encode_is_byte_identical(self):
        for fields in _random_headers():
            data = ecpri.encode_header(**fields)
            header = ecpri.decode_header(data)
            assert (
                ecpri.encode_header(
                    header.message_type,
                    header.payload_bytes,
                    header.eaxc_id,
                    header.sequence,
                    header.address,
                    header.symbol,
                    header.section_type,
                )
                == data
            )

    def test_decode_recovers_all_fields(self):
        for fields in _random_headers():
            header = ecpri.decode_header(ecpri.encode_header(**fields))
            assert header.message_type == fields["message_type"]
            assert header.payload_bytes == fields["payload_bytes"]
            assert header.eaxc_id == fields["eaxc_id"]
            assert header.sequence == fields["sequence"]
            assert header.address == fields["address"]
            assert header.symbol == fields["symbol"]
            assert header.section_type == fields["section_type"]

    def test_timing_field_fast_parse_agrees_with_full_decode(self):
        for fields in _random_headers():
            data = ecpri.encode_header(**fields)
            header = ecpri.decode_header(data)
            assert ecpri.parse_timing_fields(data) == (
                header.address.frame,
                header.address.subframe,
                header.address.slot,
            )

    def test_parse_handles_trailing_payload_and_bytearray(self):
        fields = next(iter(_random_headers(1)))
        data = ecpri.encode_header(**fields)
        padded = bytearray(data + b"\x5a" * 128)
        assert ecpri.decode_header(padded) == ecpri.decode_header(data)
        assert ecpri.parse_timing_fields(padded) == ecpri.parse_timing_fields(data)

    def test_memoized_decode_is_stable(self):
        fields = next(iter(_random_headers(1)))
        data = ecpri.encode_header(**fields)
        assert ecpri.decode_header(data) == ecpri.decode_header(bytes(data))

    def test_invalid_fields_still_rejected(self):
        # No memo sits in front of the range checks: they fire every call.
        for _ in range(2):
            with pytest.raises(ecpri.EcpriCodecError):
                ecpri.encode_header(
                    ecpri.ECPRI_TYPE_IQ_DATA, 0, 0, 0,
                    SlotAddress(frame=1024, subframe=0, slot=0),
                )
            with pytest.raises(ecpri.EcpriCodecError):
                ecpri.decode_header(b"\x00" * ecpri.HEADER_BYTES)
