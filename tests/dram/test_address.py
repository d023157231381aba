"""Tests for the physical<->DRAM address mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import (
    AddressMapping,
    DramAddress,
    interleaved_mapping,
    linear_mapping,
)
from repro.dram.geometry import DramGeometry, LINE_BYTES
from repro.errors import AddressMappingError


def geo() -> DramGeometry:
    return DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192)


def big_geo() -> DramGeometry:
    return DramGeometry(num_banks=16, rows_per_bank=512, row_bytes=8192)


class TestLinearMapping:
    def test_builds(self):
        mapping = linear_mapping(geo())
        assert len(mapping.bank_masks) == 3
        assert len(mapping.row_bits) == 6
        assert len(mapping.col_bits) == 13

    def test_column_is_low_bits(self):
        mapping = linear_mapping(geo())
        dram = mapping.phys_to_dram(0x1234)
        assert dram.col == 0x1234 % 8192

    def test_same_row_for_consecutive_lines(self):
        mapping = linear_mapping(geo())
        a = mapping.phys_to_dram(0)
        b = mapping.phys_to_dram(LINE_BYTES)
        assert (a.bank, a.row) == (b.bank, b.row)

    def test_bank_masks_mix_row_bits(self):
        # The classic XOR structure: each bank bit pairs a base bit with
        # a row bit, making single-bit bank flips impossible.
        mapping = linear_mapping(geo())
        for mask in mapping.bank_masks:
            assert bin(mask).count("1") == 2


class TestRoundTrip:
    @given(paddr=st.integers(min_value=0, max_value=(1 << 22) - 1))
    @settings(max_examples=300)
    def test_linear_round_trip(self, paddr):
        mapping = linear_mapping(geo())
        dram = mapping.phys_to_dram(paddr)
        assert mapping.dram_to_phys(dram.bank, dram.row, dram.col) == paddr

    @given(paddr=st.integers(min_value=0, max_value=(16 * 512 * 8192) - 1))
    @settings(max_examples=300)
    def test_interleaved_round_trip(self, paddr):
        mapping = interleaved_mapping(big_geo())
        dram = mapping.phys_to_dram(paddr)
        assert mapping.dram_to_phys(dram.bank, dram.row, dram.col) == paddr

    @given(bank=st.integers(min_value=0, max_value=7),
           row=st.integers(min_value=0, max_value=63),
           col=st.integers(min_value=0, max_value=8191))
    @settings(max_examples=300)
    def test_inverse_round_trip(self, bank, row, col):
        mapping = linear_mapping(geo())
        paddr = mapping.dram_to_phys(bank, row, col)
        assert mapping.phys_to_dram(paddr) == DramAddress(bank, row, col)

    @given(paddr=st.integers(min_value=0, max_value=(1 << 22) - 1))
    @settings(max_examples=200)
    def test_mapping_is_injective_per_line(self, paddr):
        # Two distinct line addresses never collide in (bank,row,col).
        mapping = linear_mapping(geo())
        other = paddr ^ LINE_BYTES  # differs in one line bit
        if other >= geo().capacity_bytes:
            return
        assert mapping.phys_to_dram(paddr) != mapping.phys_to_dram(other)


class TestValidation:
    def test_out_of_range_paddr(self):
        mapping = linear_mapping(geo())
        with pytest.raises(AddressMappingError):
            mapping.phys_to_dram(geo().capacity_bytes)
        with pytest.raises(AddressMappingError):
            mapping.phys_to_dram(-1)

    def test_out_of_range_dram(self):
        mapping = linear_mapping(geo())
        with pytest.raises(Exception):
            mapping.dram_to_phys(99, 0, 0)
        with pytest.raises(AddressMappingError):
            mapping.dram_to_phys(0, 0, 8192)

    def test_wrong_mask_count(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(1 << 13,),
                row_bits=tuple(range(16, 22)),
                col_bits=tuple(range(13)),
            )

    def test_overlapping_row_col_rejected(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(1 << 13, 1 << 14, 1 << 15),
                row_bits=tuple(range(12, 18)),  # overlaps col bit 12
                col_bits=tuple(range(13)),
            )

    def test_sub_line_bank_mask_rejected(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(1 << 3, 1 << 14, 1 << 15),
                row_bits=tuple(range(16, 22)),
                col_bits=tuple(range(13)),
            )

    def test_empty_mask_rejected(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(0, 1 << 14, 1 << 15),
                row_bits=tuple(range(16, 22)),
                col_bits=tuple(range(13)),
            )


class TestHelpers:
    def test_same_bank_and_row(self):
        mapping = linear_mapping(geo())
        p = mapping.dram_to_phys(3, 10, 0)
        q = mapping.dram_to_phys(3, 10, 128)
        r = mapping.dram_to_phys(3, 11, 0)
        s = mapping.dram_to_phys(4, 10, 0)
        assert mapping.same_row(p, q)
        assert mapping.same_bank(p, r)
        assert not mapping.same_row(p, r)
        assert not mapping.same_bank(p, s)

    def test_row_of(self):
        mapping = linear_mapping(geo())
        p = mapping.dram_to_phys(2, 9, 64)
        assert mapping.row_of(p) == (2, 9)

    def test_page_rows_linear_single_row(self):
        # 8 KiB rows, 4 KiB pages, no low bank bits: page sits in one row.
        mapping = linear_mapping(geo())
        assert len(mapping.page_rows(5)) == 1

    def test_page_rows_interleaved_spans_banks(self):
        mapping = interleaved_mapping(big_geo())
        rows = mapping.page_rows(5)
        assert len(rows) == 2
        banks = {bank for bank, _ in rows}
        assert len(banks) == 2

    def test_row_pages_inverse_of_page_rows(self):
        mapping = linear_mapping(geo())
        bank, row = mapping.row_of(mapping.dram_to_phys(1, 7, 0))
        pages = mapping.row_pages(bank, row)
        assert len(pages) == 2  # 8 KiB row holds two 4 KiB pages
        for ppn in pages:
            assert (bank, row) in mapping.page_rows(ppn)

    def test_row_pages_interleaved(self):
        mapping = interleaved_mapping(big_geo())
        pages = mapping.row_pages(0, 17)
        # Interleaved row holds halves of several pages.
        for ppn in pages:
            assert (0, 17) in mapping.page_rows(ppn)


class TestProfileMappingsShared:
    """Each geometry compiles its profile mapping once per process."""

    @pytest.mark.parametrize("build", [linear_mapping, interleaved_mapping])
    def test_equal_geometries_share_one_mapping(self, build):
        mapping = build(geo())
        assert build(DramGeometry(num_banks=8, rows_per_bank=64,
                                  row_bytes=8192)) is mapping
        assert build(big_geo()) is not mapping

    def test_machines_share_their_mapping(self):
        from repro.machine import Machine

        first, second = Machine(machine="tiny"), Machine(machine="tiny")
        assert first.dram.mapping is second.dram.mapping

    def test_invalid_geometry_raises_every_time(self):
        one_bank = DramGeometry(num_banks=1, rows_per_bank=64,
                                row_bytes=8192)
        for _ in range(2):
            with pytest.raises(AddressMappingError):
                interleaved_mapping(one_bank)
