"""Invertible physical<->DRAM address mapping with XOR bank functions.

Real Intel memory controllers map physical-address bits to the DRAM
(bank, row, column) tuple with undocumented XOR functions; DRAMA [39],
DRAMDig [50] and others reverse-engineered them via the row-buffer timing
side channel.  SoftTRR consumes such a mapping as offline domain
knowledge (Section IV-A: "we leverage a publicly available tool, called
DRAMA, to reverse-engineer its DRAM address mapping, and embed the
mapping into the kernel").

The model here is the standard one from that literature:

* every *column* bit and every *row* bit is a plain physical-address bit
  (``col_bits`` / ``row_bits`` list the positions, LSB first);
* every *bank* bit is the XOR (parity) of a set of physical-address bits
  (``bank_masks``).

To let the Row Refresher reconstruct a physical address from a
(bank, row) pair — Section IV-D: "the refresher leverages them to
reconstruct a physical address" — the mapping must be invertible.  We
guarantee that by requiring each bank mask to contain exactly one
*base bit* that is not a row bit, not a column bit, and not in any other
mask; inversion then scatters the row/column bits and solves each base
bit from the requested bank parity.

Every output bit of either direction is the parity of some input bits,
so the map is linear over GF(2).  The constructor compiles each
direction once into XOR-ed lookup tables indexed by chunks of at most
11 address bits (:func:`_xor_tables`); a translation is then one table
read per chunk plus a few shifts, and identical definitions share one
set of tables.  The same linearity gives a page's layout in DRAM
relative to its page-aligned base (:class:`PageLayout`), which the
module's whole-page copies use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import AddressMappingError
from .geometry import DramGeometry, LINE_BYTES, LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT


class DramAddress(NamedTuple):
    """A DRAM location: (bank, row, column-byte-offset)."""

    bank: int
    row: int
    col: int


#: Widest address chunk one lookup table is indexed by: three 11-bit
#: chunks cover a 33-bit (8 GiB) module with 2048-entry tables.
_CHUNK_BITS = 11

#: ``tuple.__new__`` builds a :class:`DramAddress` without the
#: generated keyword-argument ``__new__`` (the hottest call site).
_new_tuple = tuple.__new__

#: One compiled lookup: ``((shift, table), ...)`` with one table per
#: chunk of the input word, plus the shared chunk index mask.
_XorTables = Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], int]


@lru_cache(maxsize=32)
def _xor_tables(images: Tuple[int, ...]) -> _XorTables:
    """Compile a GF(2)-linear map into chunk lookup tables.

    ``images[k]`` is the output for input bit ``k`` alone; by linearity
    the output for any input is the XOR of the images of its set bits,
    so XOR-ing one precomputed entry per input chunk evaluates it.  The
    input width ``len(images)`` sets the number of chunks; chunks are
    balanced so every table has the same size.  Mappings with the same
    definition share one cache entry.
    """
    width = len(images)
    n_chunks = -(-width // _CHUNK_BITS)
    chunk_bits = -(-width // n_chunks)
    lookups = []
    for shift in range(0, width, chunk_bits):
        bit_images = images[shift:shift + chunk_bits]
        table = [0] * (1 << len(bit_images))
        for index in range(1, len(table)):
            low = index & -index
            table[index] = table[index ^ low] ^ bit_images[low.bit_length() - 1]
        lookups.append((shift, tuple(table)))
    return tuple(lookups), (1 << chunk_bits) - 1


class PageLayout(NamedTuple):
    """Where a 4 KiB page's bytes lie in DRAM, relative to its base.

    ``runs`` are ``(bank_delta, row_delta, col_delta, length)``: the
    page's lines sorted by (bank, row, column) delta, with neighbours
    whose columns are contiguous merged.  For a page-aligned base at
    ``(bank, row, col)`` a run occupies ``length`` bytes of row
    ``(bank ^ bank_delta, row ^ row_delta)`` from column
    ``col + col_delta``; the runs laid end to end are the page in *run
    order*.  ``order`` holds, for each line of run order, the page line
    it carries, and ``inverse`` where each page line sits in run order
    (read-only arrays of :data:`LINES_PER_PAGE`); both are ``None``
    when run order is page order.
    """

    runs: Tuple[Tuple[int, int, int, int], ...]
    order: Optional[np.ndarray]
    inverse: Optional[np.ndarray]


#: 64-byte lines in a 4 KiB page.
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES


@lru_cache(maxsize=32)
def _page_layout(line_keys: Tuple[Tuple[int, int, int], ...]) -> PageLayout:
    """Compile each page line's ``(bank, row, col)`` delta into runs.

    Cached like :func:`_xor_tables`, so mappings with the same
    definition share one layout.
    """
    lines = sorted(range(LINES_PER_PAGE), key=line_keys.__getitem__)
    runs: List[List[int]] = []
    for line in lines:
        bank, row, col = line_keys[line]
        if runs and runs[-1][:2] == [bank, row] and sum(runs[-1][2:]) == col:
            runs[-1][3] += LINE_BYTES
        else:
            runs.append([bank, row, col, LINE_BYTES])
    order = inverse = None
    if lines != list(range(LINES_PER_PAGE)):
        positions = [0] * LINES_PER_PAGE
        for position, line in enumerate(lines):
            positions[line] = position
        order = np.array(lines, dtype=np.intp)
        inverse = np.array(positions, dtype=np.intp)
        order.flags.writeable = inverse.flags.writeable = False
    return PageLayout(tuple(tuple(run) for run in runs), order, inverse)


@dataclass(frozen=True)
class AddressMapping:
    """An invertible physical-address to DRAM-address mapping.

    Attributes
    ----------
    geometry:
        The module geometry the mapping must cover.
    bank_masks:
        One XOR mask per bank-index bit (LSB first).  Bank bit *i* of a
        physical address ``p`` is ``parity(p & bank_masks[i])``.
    row_bits / col_bits:
        Physical-address bit positions forming the row / column index
        (LSB first).
    run_shift:
        Derived: how many low physical-address bits pass straight
        through as column bits (13 for :func:`linear_mapping` on 8 KiB
        rows, 6 for :func:`interleaved_mapping`).  Every
        ``2**run_shift``-aligned block is one contiguous byte run of a
        single row, which is what the module's bulk copies rely on.
    page_layout:
        Derived: the :class:`PageLayout` of every 4 KiB page (one run
        for :func:`linear_mapping`, two 2 KiB runs for
        :func:`interleaved_mapping`).
    """

    geometry: DramGeometry
    bank_masks: Tuple[int, ...]
    row_bits: Tuple[int, ...]
    col_bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        geo = self.geometry
        if len(self.bank_masks) != geo.bank_bits:
            raise AddressMappingError(
                f"need {geo.bank_bits} bank masks, got {len(self.bank_masks)}"
            )
        if len(self.row_bits) != geo.row_bits:
            raise AddressMappingError(
                f"need {geo.row_bits} row bits, got {len(self.row_bits)}"
            )
        if len(self.col_bits) != geo.col_bits:
            raise AddressMappingError(
                f"need {geo.col_bits} column bits, got {len(self.col_bits)}"
            )
        all_addr_bits = set(range(geo.addr_bits))
        row_set, col_set = set(self.row_bits), set(self.col_bits)
        if row_set & col_set:
            raise AddressMappingError("row and column bits overlap")
        # The low LINE_SHIFT bits must be column bits and must not appear
        # in any bank mask, so one cache line never straddles banks/rows.
        for low in range(LINE_SHIFT):
            if low not in col_set:
                raise AddressMappingError(
                    f"bit {low} must be a column bit (cache-line contiguity)"
                )
        for mask in self.bank_masks:
            if mask & ((1 << LINE_SHIFT) - 1):
                raise AddressMappingError("bank masks may not use sub-line bits")
        # Find the base bit of every mask and check invertibility.
        base_bits: List[int] = []
        used = row_set | col_set
        for i, mask in enumerate(self.bank_masks):
            if mask == 0:
                raise AddressMappingError(f"bank mask {i} is empty")
            candidates = [b for b in range(geo.addr_bits) if (mask >> b) & 1 and b not in used]
            outside = [b for b in range(mask.bit_length()) if (mask >> b) & 1 and b >= geo.addr_bits]
            if outside:
                raise AddressMappingError(
                    f"bank mask {i} uses bit {outside[0]} beyond the module's "
                    f"{geo.addr_bits} address bits"
                )
            if len(candidates) != 1:
                raise AddressMappingError(
                    f"bank mask {i} must have exactly one base bit outside the "
                    f"row/column bits and other masks, found {candidates}"
                )
            base_bits.append(candidates[0])
            used.add(candidates[0])
        if used != all_addr_bits:
            missing = sorted(all_addr_bits - used)
            raise AddressMappingError(f"address bits {missing} are unmapped")
        self._compile(base_bits)

    def _compile(self, base_bits: List[int]) -> None:
        """Precompute the lookup tables and the packed-word layout.

        Both directions translate through a packed ``bank|row|col``
        word: column index in the low bits, row index above it, bank
        index on top.
        """
        geo = self.geometry
        n_col, n_row = len(self.col_bits), len(self.row_bits)
        row_shift, bank_shift = n_col, n_col + n_row
        row_mask, col_mask = (1 << n_row) - 1, (1 << n_col) - 1
        # Forward: physical bit p feeds its column/row index bit and the
        # parity of every bank mask that contains it.
        forward = [0] * geo.addr_bits
        for i, pos in enumerate(self.col_bits):
            forward[pos] |= 1 << i
        for i, pos in enumerate(self.row_bits):
            forward[pos] |= 1 << (row_shift + i)
        for i, mask in enumerate(self.bank_masks):
            for pos in range(geo.addr_bits):
                if (mask >> pos) & 1:
                    forward[pos] |= 1 << (bank_shift + i)
        # Inverse: place the row/column bits, then solve each mask's
        # base bit (in mask order, as a later mask may hold an earlier
        # base bit) so the mask's parity equals the wanted bank bit.
        inverse = []
        for k in range(geo.addr_bits):
            if k < row_shift:
                paddr, bank = 1 << self.col_bits[k], 0
            elif k < bank_shift:
                paddr, bank = 1 << self.row_bits[k - row_shift], 0
            else:
                paddr, bank = 0, 1 << (k - bank_shift)
            for i, (mask, base) in enumerate(zip(self.bank_masks, base_bits)):
                have = bin(paddr & mask).count("1") & 1
                if have != (bank >> i) & 1:
                    paddr ^= 1 << base
            inverse.append(paddr)
        # Low physical bits that are column bits in place and feed no
        # bank mask: a 2**run_shift-aligned block is one contiguous run
        # of one row.
        bank_union = 0
        for mask in self.bank_masks:
            bank_union |= mask
        run_shift = 0
        while (run_shift < n_col and self.col_bits[run_shift] == run_shift
               and not (bank_union >> run_shift) & 1):
            run_shift += 1
        # A page's line offsets share no bit with its page-aligned base,
        # so by linearity each line's (bank, row) is the base's XOR the
        # offset's and its column the base's plus the offset's.
        line_keys = []
        for offset in range(0, PAGE_BYTES, LINE_BYTES):
            packed = 0
            for pos in range(PAGE_SHIFT):
                if (offset >> pos) & 1:
                    packed ^= forward[pos]
            line_keys.append((packed >> bank_shift,
                              (packed >> row_shift) & row_mask,
                              packed & col_mask))
        # page_rows keeps the distinct (bank, row) deltas in line order.
        page_deltas: List[Tuple[int, int]] = []
        for bank, row, _col in line_keys:
            if (bank, row) not in page_deltas:
                page_deltas.append((bank, row))
        tables, chunk_mask = _xor_tables(tuple(forward))
        object.__setattr__(self, "_to_dram", (
            geo.capacity_bytes, tables, chunk_mask, bank_shift, row_shift,
            row_mask, col_mask))
        tables, chunk_mask = _xor_tables(tuple(inverse))
        object.__setattr__(self, "_to_phys", (
            tables, chunk_mask, bank_shift, row_shift, geo.row_bytes))
        object.__setattr__(self, "_page_deltas", tuple(page_deltas))
        object.__setattr__(self, "page_layout", _page_layout(tuple(line_keys)))
        object.__setattr__(self, "run_shift", run_shift)

    # The compiled tables are derived, immutable state: copies share
    # them and pickles carry only the definition.
    def __reduce__(self):
        return (AddressMapping,
                (self.geometry, self.bank_masks, self.row_bits, self.col_bits))

    def __deepcopy__(self, memo) -> "AddressMapping":
        return self

    # ------------------------------------------------------------ forward
    def phys_to_dram(self, paddr: int) -> DramAddress:
        """Map a physical byte address to its DRAM location."""
        capacity, tables, chunk_mask, bank_shift, row_shift, row_mask, col_mask = (
            self._to_dram)  # type: ignore[attr-defined]
        if not 0 <= paddr < capacity:
            raise AddressMappingError(
                f"paddr {paddr:#x} outside module capacity {capacity:#x}"
            )
        packed = 0
        for shift, table in tables:
            packed ^= table[(paddr >> shift) & chunk_mask]
        return _new_tuple(DramAddress, (
            packed >> bank_shift, (packed >> row_shift) & row_mask,
            packed & col_mask))

    # ------------------------------------------------------------ inverse
    def dram_to_phys(self, bank: int, row: int, col: int = 0) -> int:
        """Reconstruct the physical address of a DRAM location.

        This is exactly what SoftTRR's Row Refresher does before reading
        the row through the direct-physical map (Section IV-D).
        """
        self.geometry.check_bank(bank)
        self.geometry.check_row(row)
        tables, chunk_mask, bank_shift, row_shift, row_bytes = (
            self._to_phys)  # type: ignore[attr-defined]
        if not 0 <= col < row_bytes:
            raise AddressMappingError(f"column {col} out of range")
        packed = (bank << bank_shift) | (row << row_shift) | col
        paddr = 0
        for shift, table in tables:
            paddr ^= table[(packed >> shift) & chunk_mask]
        return paddr

    # ------------------------------------------------------------ helpers
    def row_of(self, paddr: int) -> Tuple[int, int]:
        """(bank, row) of a physical address — the hammer-relevant part."""
        dram = self.phys_to_dram(paddr)
        return dram.bank, dram.row

    def same_bank(self, paddr_a: int, paddr_b: int) -> bool:
        """Whether two physical addresses share a DRAM bank."""
        return self.phys_to_dram(paddr_a).bank == self.phys_to_dram(paddr_b).bank

    def same_row(self, paddr_a: int, paddr_b: int) -> bool:
        """Whether two physical addresses share both bank and row."""
        a, b = self.phys_to_dram(paddr_a), self.phys_to_dram(paddr_b)
        return a.bank == b.bank and a.row == b.row

    def page_rows(self, ppn: int) -> List[Tuple[int, int]]:
        """Distinct (bank, row) pairs that the 4 KiB page ``ppn`` touches.

        Pages can span multiple banks on interleaved mappings, which is
        why SoftTRR's ``pt_row_rbtree`` nodes can carry several
        ``bank_struct`` entries (Table I, [50]).
        """
        dram = self.phys_to_dram(ppn << PAGE_SHIFT)
        return [(dram.bank ^ bank, dram.row ^ row)
                for bank, row in self._page_deltas]  # type: ignore[attr-defined]

    def row_pages(self, bank: int, row: int) -> List[int]:
        """Distinct PPNs with at least one line in (bank, row).

        Used by SoftTRR's collector to enumerate the pages that live in a
        row adjacent to a page-table row.
        """
        seen: List[int] = []
        for col in range(0, self.geometry.row_bytes, 1 << LINE_SHIFT):
            ppn = self.dram_to_phys(bank, row, col) >> 12
            if ppn not in seen:
                seen.append(ppn)
        return seen


# The two profile mappings are frozen and pure in the geometry, so each
# geometry compiles its mapping once per process and machines share it.
@lru_cache(maxsize=32)
def linear_mapping(geometry: DramGeometry) -> AddressMapping:
    """The simplest sane mapping: column low, bank middle, row high.

    Each bank bit additionally XORs in one row bit (the classic
    "rank/bank address mirroring" structure DRAMA finds on real DDR3),
    which makes the mapping non-trivial to reverse-engineer while staying
    invertible.
    """
    geo = geometry
    col_bits = tuple(range(geo.col_bits))
    bank_base = tuple(range(geo.col_bits, geo.col_bits + geo.bank_bits))
    row_bits = tuple(range(geo.col_bits + geo.bank_bits, geo.addr_bits))
    masks = []
    for i, base in enumerate(bank_base):
        mask = 1 << base
        if i < len(row_bits):
            mask |= 1 << row_bits[i]
        masks.append(mask)
    return AddressMapping(
        geometry=geo, bank_masks=tuple(masks), row_bits=row_bits, col_bits=col_bits
    )


@lru_cache(maxsize=32)
def interleaved_mapping(geometry: DramGeometry) -> AddressMapping:
    """A mapping whose lowest bank bit is physical bit 6.

    With a bank function at bit 6, consecutive cache lines alternate
    between two banks, so a single 4 KiB page *spans two banks* — the
    behaviour [50] documents and the reason a SoftTRR ``pt_row_rbtree``
    node may hold multiple ``bank_struct`` entries.  Used for the DDR4
    performance-testbed profile.
    """
    geo = geometry
    if geo.bank_bits < 1:
        raise AddressMappingError("interleaved mapping needs at least 2 banks")
    # Column bits: 0..5 (sub-line) plus bits 7.. up to the column width.
    col_bits = tuple(range(LINE_SHIFT)) + tuple(
        range(LINE_SHIFT + 1, LINE_SHIFT + 1 + geo.col_bits - LINE_SHIFT)
    )
    next_free = col_bits[-1] + 1
    bank_base = (LINE_SHIFT,) + tuple(range(next_free, next_free + geo.bank_bits - 1))
    row_start = next_free + geo.bank_bits - 1
    row_bits = tuple(range(row_start, row_start + geo.row_bits))
    masks = []
    for i, base in enumerate(bank_base):
        mask = 1 << base
        if i < len(row_bits):
            mask |= 1 << row_bits[i]
        masks.append(mask)
    return AddressMapping(
        geometry=geo, bank_masks=tuple(masks), row_bits=row_bits, col_bits=col_bits
    )
