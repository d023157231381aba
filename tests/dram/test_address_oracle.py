"""The compiled address mapping against the bit-by-bit reference.

:mod:`tests.dram.reference_address` translates straight from a mapping's
definition, one bit at a time.  These properties hold the lookup-table
mapping, the module's block-wise bulk copies and its whole-page copies
equal to it, on random valid mappings, on every machine profile's
mapping and on hand-built mappings with awkward page layouts.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.config import MACHINES, machine, tiny_machine
from repro.dram.address import AddressMapping, interleaved_mapping, linear_mapping
from repro.dram.geometry import DramGeometry, LINE_SHIFT, PAGE_BYTES
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


def _bits(*positions: int) -> int:
    mask = 0
    for pos in positions:
        mask |= 1 << pos
    return mask


_GEO = DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192)

#: Bank bits at physical bits 6 and 7: each page spans four banks.
FOUR_BANK_PAGES = AddressMapping(
    geometry=_GEO,
    bank_masks=(_bits(6, 16), _bits(7, 17), _bits(15, 18)),
    row_bits=tuple(range(16, 22)),
    col_bits=tuple(range(6)) + tuple(range(8, 15)),
)

#: Column index bit 6 is physical bit 20, above the page offset, and a
#: bank mask takes in column bit 9: a page spans four banks whose
#: columns step by 128 bytes, so every bank holds 16 one-line runs, and
#: a page base's column is not a multiple of 4 KiB.
SPLIT_COLUMN_PAGES = AddressMapping(
    geometry=_GEO,
    bank_masks=(_bits(6, 15), _bits(13, 9), _bits(14, 21)),
    row_bits=(15, 16, 17, 18, 19, 21),
    col_bits=tuple(range(6)) + (20, 7, 8, 9, 10, 11, 12),
)

AWKWARD_MAPPINGS = [FOUR_BANK_PAGES, SPLIT_COLUMN_PAGES]


def _page_payload(data) -> bytes:
    """4 KiB that differ in every line, so a misplaced line shows."""
    seed = data.draw(st.binary(min_size=64, max_size=64))
    return bytes((seed[i % 64] + i // 64) & 0xFF for i in range(PAGE_BYTES))


class TestPageLayout:
    def test_profile_layouts(self):
        geo = machine("perf_testbed").geometry
        linear = linear_mapping(geo).page_layout
        assert linear.runs == ((0, 0, 0, PAGE_BYTES),)
        assert linear.order is None and linear.inverse is None
        interleaved = interleaved_mapping(geo).page_layout
        assert [run[3] for run in interleaved.runs] == [2048, 2048]
        assert len({run[0] for run in interleaved.runs}) == 2
        assert interleaved.order is not None

    def test_awkward_layouts(self):
        runs = FOUR_BANK_PAGES.page_layout.runs
        assert len({run[0] for run in runs}) == 4
        runs = SPLIT_COLUMN_PAGES.page_layout.runs
        assert len(runs) == 64
        assert len({run[0] for run in runs}) == 4

    @given(mapping=mappings())
    @settings(max_examples=60, deadline=None)
    def test_layout_is_a_permutation_of_the_page(self, mapping):
        layout = mapping.page_layout
        assert sum(run[3] for run in layout.runs) == PAGE_BYTES
        if layout.order is not None:
            assert sorted(layout.order) == list(range(64))
            assert list(layout.order[layout.inverse]) == list(range(64))

    def test_layout_is_shared_and_read_only(self):
        geo = machine("perf_testbed").geometry
        a, b = interleaved_mapping(geo), interleaved_mapping(geo)
        assert a.page_layout is b.page_layout
        with pytest.raises(ValueError):
            a.page_layout.order[0] = 1


class TestPageCopies:
    """Whole-page ``raw_read``/``raw_write`` == per-line reference."""

    @pytest.mark.parametrize("mapping", PROFILE_MAPPINGS + AWKWARD_MAPPINGS,
                             ids=lambda m: f"{m.geometry.addr_bits}b-{m.run_shift}")
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fixed_mapping_pages_match_reference(self, mapping, data):
        self._check_pages(mapping, data)

    @given(mapping=mappings(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_mapping_pages_match_reference(self, mapping, data):
        self._check_pages(mapping, data)

    @staticmethod
    def _check_pages(mapping, data):
        paged, per_line = _module(mapping), _module(mapping)
        last = (mapping.geometry.capacity_bytes >> 12) - 1
        ppns = data.draw(st.lists(st.integers(0, last), min_size=1, max_size=4))
        for ppn in ppns + [last]:
            payload = _page_payload(data)
            paged.raw_write(ppn << 12, payload)
            ref.raw_write(per_line, ppn << 12, payload)
            assert paged._rows == per_line._rows
            assert paged.raw_read(ppn << 12, PAGE_BYTES) == payload
        # A page never written reads as zeros, also next to written ones.
        fresh = data.draw(st.integers(0, last))
        assert paged.raw_read(fresh << 12, PAGE_BYTES) == ref.raw_read(
            per_line, fresh << 12, PAGE_BYTES)
        # Spans across page boundaries and sub-block spans take the
        # general and the single-block paths over the same bytes.
        for _ in range(4):
            paddr, size = _span(data, mapping.geometry.capacity_bytes)
            assert paged.raw_read(paddr, size) == ref.raw_read(
                per_line, paddr, size)
        if last:  # a page-sized write that straddles two pages
            paddr = data.draw(st.integers(1, last * PAGE_BYTES - 1))
            payload = _page_payload(data)
            paged.raw_write(paddr, payload)
            ref.raw_write(per_line, paddr, payload)
            assert paged._rows == per_line._rows
            assert paged.raw_read(paddr & ~0xFFF, PAGE_BYTES) == ref.raw_read(
                per_line, paddr & ~0xFFF, PAGE_BYTES)

    @pytest.mark.parametrize("mapping", AWKWARD_MAPPINGS + PROFILE_MAPPINGS[:2],
                             ids=lambda m: f"{m.geometry.addr_bits}b-{m.run_shift}")
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sub_block_reads_of_unwritten_rows_are_zero(self, mapping, data):
        dram = _module(mapping)
        block = 1 << mapping.run_shift
        capacity = mapping.geometry.capacity_bytes
        base = data.draw(st.integers(0, capacity // block - 1)) * block
        offset = data.draw(st.integers(0, block - 1))
        size = data.draw(st.integers(1, block - offset))
        assert dram.raw_read(base + offset, size) == bytes(size)
        payload = data.draw(st.binary(min_size=size, max_size=size))
        dram.raw_write(base + offset, payload)
        assert dram.raw_read(base + offset, size) == payload
        assert dram.raw_read(base, block) == ref.raw_read(dram, base, block)

    @pytest.mark.parametrize("mapping", AWKWARD_MAPPINGS + PROFILE_MAPPINGS[:2],
                             ids=lambda m: f"{m.geometry.addr_bits}b-{m.run_shift}")
    def test_spans_past_capacity_still_raise(self, mapping):
        dram = _module(mapping)
        capacity = mapping.geometry.capacity_bytes
        for paddr, size in ((capacity, PAGE_BYTES), (capacity - PAGE_BYTES + 8,
                                                      PAGE_BYTES),
                            (capacity, 8), (-PAGE_BYTES, PAGE_BYTES)):
            with pytest.raises(DramError, match="outside capacity"):
                dram.raw_read(paddr, size)
            with pytest.raises(DramError, match="outside capacity"):
                dram.raw_write(paddr, bytes(size))
