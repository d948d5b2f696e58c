"""Round-trip and property tests for the FAPI binary codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fapi import messages as m
from repro.fapi.codec import (
    FapiCodecError,
    _WIRE_SIZERS,
    decode_message,
    encode_message,
    wire_size,
)
from repro.phy.modulation import Modulation


def pdu_strategy(cls):
    return st.builds(
        cls,
        ue_id=st.integers(0, 65535),
        harq_process=st.integers(0, 255),
        modulation=st.sampled_from(list(Modulation)),
        prbs=st.integers(1, 273),
        new_data=st.booleans(),
        tb_id=st.integers(0, 2**40),
        tb_bytes=st.integers(0, 2**31 - 1),
        retx_index=st.integers(0, 3),
    )


class TestRoundTrips:
    def test_config_request(self):
        msg = m.ConfigRequest(
            cell_id=3, slot=17, num_prbs=273, numerology_mu=1,
            tdd_pattern="DDDSU", ru_id=9,
        )
        decoded = decode_message(encode_message(msg))
        assert isinstance(decoded, m.ConfigRequest)
        assert decoded.tdd_pattern == "DDDSU"
        assert decoded.num_prbs == 273
        assert decoded.ru_id == 9

    def test_start_stop_slot(self):
        for msg in (
            m.StartRequest(cell_id=1, slot=5),
            m.StopRequest(cell_id=1, slot=5),
            m.SlotIndication(cell_id=2, slot=99),
        ):
            decoded = decode_message(encode_message(msg))
            assert type(decoded) is type(msg)
            assert decoded.cell_id == msg.cell_id
            assert decoded.slot == msg.slot

    def test_error_indication_with_unicode(self):
        msg = m.ErrorIndication(cell_id=0, slot=1, error_code=7, detail="bad slot ⚠")
        decoded = decode_message(encode_message(msg))
        assert decoded.detail == "bad slot ⚠"

    def test_tx_data_blobs(self):
        msg = m.TxDataRequest(
            cell_id=0, slot=4, payloads=[(11, b"hello"), (12, b""), (13, b"\x00" * 100)]
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.payloads == [(11, b"hello"), (12, b""), (13, b"\x00" * 100)]

    def test_rx_data(self):
        msg = m.RxDataIndication(
            cell_id=1, slot=8, payloads=[(5, 2, 900, b"data"), (6, 0, 901, b"x")]
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.payloads == [(5, 2, 900, b"data"), (6, 0, 901, b"x")]

    def test_crc_indication(self):
        msg = m.CrcIndication(
            cell_id=0,
            slot=3,
            results=[
                m.CrcResult(ue_id=1, harq_process=2, tb_id=77, crc_ok=True,
                            measured_snr_db=14.5, retx_index=1),
            ],
        )
        decoded = decode_message(encode_message(msg))
        result = decoded.results[0]
        assert result.crc_ok
        assert result.measured_snr_db == pytest.approx(14.5, abs=0.01)

    def test_uci_indication_with_bsr(self):
        msg = m.UciIndication(
            cell_id=0,
            slot=6,
            feedback=[m.HarqFeedback(ue_id=3, harq_process=1, tb_id=55, ack=False)],
            bsr_reports=[(3, 120_000)],
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.feedback[0].ack is False
        assert decoded.bsr_reports == [(3, 120_000)]

    @given(st.lists(pdu_strategy(m.PuschPdu), max_size=8), st.integers(0, 2**40))
    @settings(max_examples=50, deadline=None)
    def test_ul_tti_roundtrip_property(self, pdus, slot):
        msg = m.UlTtiRequest(cell_id=7, slot=slot, pdus=pdus)
        decoded = decode_message(encode_message(msg))
        assert len(decoded.pdus) == len(pdus)
        for original, recovered in zip(pdus, decoded.pdus):
            assert recovered.ue_id == original.ue_id
            assert recovered.modulation == original.modulation
            assert recovered.tb_id == original.tb_id
            assert recovered.new_data == original.new_data

    @given(st.lists(pdu_strategy(m.PdschPdu), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_dl_tti_roundtrip_property(self, pdus):
        msg = m.DlTtiRequest(cell_id=2, slot=42, pdus=pdus)
        decoded = decode_message(encode_message(msg))
        assert len(decoded.pdus) == len(pdus)
        assert decoded.is_null == msg.is_null


#: One message of every type ``wire_size`` has a sizer for, each payload
#: a byte blob so the encoder can serialize it.
_PDU = dict(
    ue_id=1, harq_process=2, modulation=Modulation.QAM16, prbs=10,
    new_data=True, tb_id=5, tb_bytes=100, retx_index=0,
)
WIRE_SAMPLES = [
    m.ConfigRequest(
        cell_id=3, slot=17, num_prbs=273, numerology_mu=1,
        tdd_pattern="DDDSU", ru_id=9,
    ),
    m.StartRequest(cell_id=1, slot=5),
    m.StopRequest(cell_id=1, slot=5),
    m.SlotIndication(cell_id=2, slot=99),
    m.ErrorIndication(cell_id=0, slot=1, error_code=7, detail="bad slot ⚠"),
    m.UlTtiRequest(cell_id=0, slot=1, pdus=[m.PuschPdu(**_PDU)]),
    m.DlTtiRequest(cell_id=0, slot=1, pdus=[m.PdschPdu(**_PDU)]),
    m.TxDataRequest(cell_id=0, slot=4, payloads=[(11, b"hello"), (12, b"")]),
    m.RxDataIndication(cell_id=1, slot=8, payloads=[(5, 2, 900, b"data")]),
    m.CrcIndication(
        cell_id=0,
        slot=3,
        results=[
            m.CrcResult(ue_id=1, harq_process=2, tb_id=77, crc_ok=True,
                        measured_snr_db=14.5, retx_index=1),
        ],
    ),
    m.UciIndication(
        cell_id=0,
        slot=6,
        feedback=[m.HarqFeedback(ue_id=3, harq_process=1, tb_id=55, ack=False)],
        bsr_reports=[(3, 120_000)],
    ),
]


class TestSizesAndErrors:
    @pytest.mark.parametrize(
        "msg", WIRE_SAMPLES, ids=[type(msg).__name__ for msg in WIRE_SAMPLES]
    )
    def test_wire_size_matches_encoding(self, msg):
        """Each analytic sizer counts exactly the bytes the encoder writes."""
        assert wire_size(msg) == len(encode_message(msg))

    def test_wire_samples_cover_every_sizer(self):
        assert [type(msg) for msg in WIRE_SAMPLES] == list(_WIRE_SIZERS)

    def test_wire_size_matches_encoding_for_bytes_payloads(self):
        msg = m.TxDataRequest(cell_id=0, slot=1, payloads=[(1, b"abcd")])
        assert wire_size(msg) == len(encode_message(msg))

    def test_wire_size_of_null_tti_is_small(self):
        """Null FAPI requests must be tiny — <1 MB/s total (§8.5)."""
        assert wire_size(m.null_ul_tti(0, 5)) < 32

    def test_truncated_header_rejected(self):
        with pytest.raises(FapiCodecError):
            decode_message(b"\x00\x01")

    def test_bad_magic_rejected(self):
        data = bytearray(encode_message(m.SlotIndication(cell_id=0, slot=0)))
        data[0] ^= 0xFF
        with pytest.raises(FapiCodecError):
            decode_message(bytes(data))

    def test_truncated_body_rejected(self):
        data = encode_message(
            m.TxDataRequest(cell_id=0, slot=1, payloads=[(1, b"abcdef")])
        )
        with pytest.raises(FapiCodecError):
            decode_message(data[:-3])


    def test_unregistered_message_type_rejected(self):
        """The encoder dispatches on the exact type; anything outside
        its table (here: a subclass) is refused, not guessed at."""

        class VendorSlotIndication(m.SlotIndication):
            pass

        with pytest.raises(FapiCodecError, match="VendorSlotIndication"):
            encode_message(VendorSlotIndication(cell_id=0, slot=0))


class TestNullHelpers:
    def test_null_requests_are_null(self):
        assert m.null_ul_tti(0, 1).is_null
        assert m.null_dl_tti(0, 1).is_null
        assert m.is_null_request(m.null_ul_tti(0, 1))

    def test_non_tti_messages_are_not_null(self):
        assert not m.is_null_request(m.SlotIndication(cell_id=0, slot=1))

    def test_populated_tti_is_not_null(self):
        pdu = m.PuschPdu(
            ue_id=1, harq_process=0, modulation=Modulation.QPSK,
            prbs=10, new_data=True, tb_id=1, tb_bytes=100,
        )
        assert not m.UlTtiRequest(cell_id=0, slot=1, pdus=[pdu]).is_null
