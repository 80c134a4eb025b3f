"""Unit tests for DRAM address mapping."""

import pytest

from repro.dram.address import LINE_BYTES, AddressMapper, DecodedAddress
from repro.errors import DramError


def _mapper(**overrides):
    defaults = dict(
        mapping="ro_ba_ra_co_ch",
        channels=2,
        ranks=1,
        banks=4,
        row_bytes=1024,
        capacity_bytes_per_channel=1 << 20,
    )
    defaults.update(overrides)
    return AddressMapper(**defaults)


class TestAddressMapper:
    def test_channel_interleaving_on_lines(self):
        # Default mapping: channel bits lowest -> consecutive lines
        # alternate channels.
        mapper = _mapper()
        a = mapper.decode(0)
        b = mapper.decode(LINE_BYTES)
        assert a.channel == 0
        assert b.channel == 1

    def test_same_line_same_coords(self):
        mapper = _mapper()
        assert mapper.decode(0) == mapper.decode(LINE_BYTES - 1)

    def test_column_progression(self):
        mapper = _mapper()
        # Two channels: lines 0,2,4.. land on channel 0 with columns 0,1,2..
        first = mapper.decode(0)
        second = mapper.decode(2 * LINE_BYTES)
        assert second.channel == first.channel
        assert second.column == first.column + 1

    def test_row_wraps_at_capacity(self):
        mapper = _mapper(capacity_bytes_per_channel=1 << 14)
        huge = mapper.decode(1 << 30)
        assert 0 <= huge.row < mapper.rows

    def test_columns_per_row(self):
        mapper = _mapper(row_bytes=1024)
        assert mapper.columns == 1024 // LINE_BYTES

    def test_alternative_mapping_order(self):
        # Column in the low bits: consecutive lines stay in one channel.
        mapper = _mapper(mapping="ro_ba_ra_ch_co")
        a = mapper.decode(0)
        b = mapper.decode(LINE_BYTES)
        assert a.channel == b.channel
        assert b.column == a.column + 1

    def test_bank_field_decodes(self):
        mapper = _mapper(mapping="ro_co_ra_ch_ba", banks=4)
        banks = {mapper.decode(i * LINE_BYTES).bank for i in range(4)}
        assert banks == {0, 1, 2, 3}

    def test_negative_address_rejected(self):
        with pytest.raises(DramError):
            _mapper().decode(-1)

    def test_bad_mapping_string(self):
        with pytest.raises(DramError):
            _mapper(mapping="ro_ba_co")

    def test_bad_row_bytes(self):
        with pytest.raises(DramError):
            _mapper(row_bytes=100)

    def test_decoded_address_fields(self):
        decoded = DecodedAddress(channel=1, rank=0, bank=2, row=3, column=4)
        assert decoded.bank == 2
