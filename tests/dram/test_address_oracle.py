"""The compiled address mapping against the bit-by-bit reference.

:mod:`tests.dram.reference_address` translates straight from a mapping's
definition, one bit at a time.  These properties hold the lookup-table
mapping and the module's block-wise bulk copies equal to it, on random
valid mappings and on every machine profile's mapping.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.config import MACHINES, machine, tiny_machine
from repro.dram.address import AddressMapping, interleaved_mapping, linear_mapping
from repro.dram.geometry import DramGeometry, LINE_SHIFT
from repro.dram.module import DramModule
from repro.errors import AddressMappingError, ConfigError, DramError

from . import reference_address as ref

PROFILE_SPECS = [tiny_machine()] + [machine(name) for name in sorted(MACHINES)]
PROFILE_MAPPINGS = [
    build(spec.geometry)
    for spec in PROFILE_SPECS
    for build in (linear_mapping, interleaved_mapping)
]


@st.composite
def mappings(draw):
    """A random valid mapping: random geometry, random roles for every
    address bit above the line offset, and each bank mask its base bit
    plus random extra row, column and earlier base bits."""
    geometry = DramGeometry(
        num_banks=1 << draw(st.integers(1, 4)),
        rows_per_bank=1 << draw(st.integers(2, 9)),
        row_bytes=1 << draw(st.integers(9, 13)),
    )
    upper = draw(st.permutations(range(LINE_SHIFT, geometry.addr_bits)))
    n_col = geometry.col_bits - LINE_SHIFT
    col_bits = tuple(range(LINE_SHIFT)) + tuple(upper[:n_col])
    row_bits = tuple(upper[n_col:n_col + geometry.row_bits])
    bases = upper[n_col + geometry.row_bits:]
    extras = [b for b in row_bits + col_bits if b >= LINE_SHIFT]
    masks = []
    for i, base in enumerate(bases):
        pool = extras + list(bases[:i])
        chosen = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
        mask = 1 << base
        for bit in chosen:
            mask |= 1 << bit
        masks.append(mask)
    return AddressMapping(geometry=geometry, bank_masks=tuple(masks),
                          row_bits=row_bits, col_bits=col_bits)


def _module(mapping: AddressMapping) -> DramModule:
    spec = tiny_machine()
    return DramModule(mapping=mapping, timings=spec.timings,
                      disturbance=spec.disturbance, trr=spec.trr,
                      clock=SimClock())


def _check_translation(mapping: AddressMapping, paddr: int) -> None:
    dram = mapping.phys_to_dram(paddr)
    assert tuple(dram) == ref.phys_to_dram(mapping, paddr)
    assert mapping.dram_to_phys(*dram) == paddr
    assert ref.dram_to_phys(mapping, *dram) == paddr


class TestTranslation:
    @given(mapping=mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_mapping_matches_reference(self, mapping, data):
        capacity = mapping.geometry.capacity_bytes
        for paddr in data.draw(st.lists(
                st.integers(0, capacity - 1), min_size=1, max_size=20)):
            _check_translation(mapping, paddr)

    @given(mapping=mappings(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_mapping_inverse_matches_reference(self, mapping, data):
        geo = mapping.geometry
        bank = data.draw(st.integers(0, geo.num_banks - 1))
        row = data.draw(st.integers(0, geo.rows_per_bank - 1))
        col = data.draw(st.integers(0, geo.row_bytes - 1))
        paddr = mapping.dram_to_phys(bank, row, col)
        assert paddr == ref.dram_to_phys(mapping, bank, row, col)
        assert tuple(mapping.phys_to_dram(paddr)) == (bank, row, col)

    @pytest.mark.parametrize("mapping", PROFILE_MAPPINGS,
                             ids=lambda m: f"{m.geometry.addr_bits}b-{m.run_shift}")
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_profile_mapping_matches_reference(self, mapping, data):
        paddr = data.draw(st.integers(0, mapping.geometry.capacity_bytes - 1))
        _check_translation(mapping, paddr)

    @given(mapping=mappings(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_page_rows_match_reference(self, mapping, data):
        ppn = data.draw(st.integers(0, (mapping.geometry.capacity_bytes >> 12) - 1))
        assert mapping.page_rows(ppn) == ref.page_rows(mapping, ppn)

    @pytest.mark.parametrize("mapping", PROFILE_MAPPINGS,
                             ids=lambda m: f"{m.geometry.addr_bits}b-{m.run_shift}")
    def test_profile_page_rows_match_reference(self, mapping):
        for ppn in range(0, mapping.geometry.capacity_bytes >> 12, 97):
            assert mapping.page_rows(ppn) == ref.page_rows(mapping, ppn)

    def test_run_shift(self):
        geo = machine("perf_testbed").geometry
        assert linear_mapping(geo).run_shift == 13
        assert interleaved_mapping(geo).run_shift == 6

    @given(mapping=mappings())
    @settings(max_examples=50, deadline=None)
    def test_run_shift_blocks_are_contiguous_row_runs(self, mapping):
        block = 1 << mapping.run_shift
        base = ref.phys_to_dram(mapping, 0)
        last = ref.phys_to_dram(mapping, block - 1)
        assert last == (base[0], base[1], base[2] + block - 1)

    def test_equal_definitions_share_tables(self):
        geo = machine("thinkpad_x230").geometry
        a, b = linear_mapping(geo), linear_mapping(geo)
        assert a._to_dram[1] is b._to_dram[1]
        assert a._to_phys[0] is b._to_phys[0]


class TestOutOfRange:
    @pytest.mark.parametrize("mapping", PROFILE_MAPPINGS[:2])
    def test_bad_inputs_still_raise(self, mapping):
        geo = mapping.geometry
        for paddr in (-1, geo.capacity_bytes, geo.capacity_bytes + 4096):
            with pytest.raises(AddressMappingError):
                mapping.phys_to_dram(paddr)
        with pytest.raises(ConfigError):
            mapping.dram_to_phys(geo.num_banks, 0, 0)
        with pytest.raises(ConfigError):
            mapping.dram_to_phys(0, geo.rows_per_bank, 0)
        with pytest.raises(ConfigError):
            mapping.dram_to_phys(-1, 0, 0)
        for col in (-1, geo.row_bytes):
            with pytest.raises(AddressMappingError):
                mapping.dram_to_phys(0, 0, col)

    def test_bulk_copies_still_raise(self):
        dram = _module(PROFILE_MAPPINGS[0])
        capacity = dram.geometry.capacity_bytes
        for paddr, size in ((capacity - 4, 8), (-1, 4), (0, 0), (0, -1)):
            with pytest.raises(DramError):
                dram.raw_read(paddr, size)
            with pytest.raises(DramError):
                dram.raw_write(paddr, b"\x01" * max(size, 0))


def _span(data, capacity: int):
    size = data.draw(st.integers(1, min(3 * 8192, capacity)))
    paddr = data.draw(st.integers(0, capacity - size))
    return paddr, size


class TestBulkCopies:
    """Block-wise ``raw_read``/``raw_write`` == per-line reference."""

    @pytest.mark.parametrize("kind", ["linear", "interleaved"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_profile_copies_match_reference(self, kind, data):
        spec = dataclasses.replace(machine("perf_testbed"), mapping_kind=kind)
        self._check_copies(spec.build_mapping(), data)

    @given(mapping=mappings(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_mapping_copies_match_reference(self, mapping, data):
        self._check_copies(mapping, data)

    @staticmethod
    def _check_copies(mapping, data):
        blockwise, per_line = _module(mapping), _module(mapping)
        capacity = mapping.geometry.capacity_bytes
        for _ in range(3):
            paddr, size = _span(data, capacity)
            payload = data.draw(st.binary(min_size=size, max_size=size))
            blockwise.raw_write(paddr, payload)
            ref.raw_write(per_line, paddr, payload)
            assert blockwise._rows == per_line._rows
            paddr, size = _span(data, capacity)
            assert blockwise.raw_read(paddr, size) == ref.raw_read(
                blockwise, paddr, size)
