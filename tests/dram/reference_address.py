"""Bit-by-bit reference for the physical<->DRAM address mapping.

An independent oracle for :class:`repro.dram.address.AddressMapping`:
it reads only the mapping's *definition* (``geometry``, ``bank_masks``,
``row_bits``, ``col_bits``) and translates one bit at a time, the way
the mapping is written down — column/row bits gathered from their
physical positions, each bank bit the parity of its mask.  The shipped
mapping compiles the same definition into lookup tables; the property
tests in ``test_address_oracle.py`` hold the two equal.

The per-line forms below translate every 64-byte line separately:
``raw_read`` / ``raw_write`` give the layout the block-wise bulk copies
of :class:`repro.dram.module.DramModule` must reproduce, and
``page_rows`` the rows a page touches.
"""

from typing import Sequence, Tuple

LINE_BYTES = 64


def parity(value: int) -> int:
    """Parity (XOR of all bits) of ``value``."""
    return bin(value).count("1") & 1


def gather_bits(value: int, positions: Sequence[int]) -> int:
    """Extract the bits of ``value`` at ``positions`` into a packed int."""
    out = 0
    for i, pos in enumerate(positions):
        out |= ((value >> pos) & 1) << i
    return out


def scatter_bits(packed: int, positions: Sequence[int]) -> int:
    """Inverse of :func:`gather_bits`."""
    out = 0
    for i, pos in enumerate(positions):
        out |= ((packed >> i) & 1) << pos
    return out


def base_bits(mapping) -> Tuple[int, ...]:
    """Each bank mask's base bit: its one bit outside the row/column bits
    and the earlier masks' base bits."""
    used = set(mapping.row_bits) | set(mapping.col_bits)
    bases = []
    for mask in mapping.bank_masks:
        (base,) = [b for b in range(mapping.geometry.addr_bits)
                   if (mask >> b) & 1 and b not in used]
        bases.append(base)
        used.add(base)
    return tuple(bases)


def phys_to_dram(mapping, paddr: int) -> Tuple[int, int, int]:
    """(bank, row, col) of ``paddr``, one bit at a time."""
    assert 0 <= paddr < mapping.geometry.capacity_bytes
    bank = 0
    for i, mask in enumerate(mapping.bank_masks):
        bank |= parity(paddr & mask) << i
    return (bank, gather_bits(paddr, mapping.row_bits),
            gather_bits(paddr, mapping.col_bits))


def dram_to_phys(mapping, bank: int, row: int, col: int) -> int:
    """Physical address of (bank, row, col): scatter the row/column bits,
    then set each base bit so its mask's parity is the wanted bank bit."""
    paddr = scatter_bits(row, mapping.row_bits) | scatter_bits(col, mapping.col_bits)
    for i, (mask, base) in enumerate(zip(mapping.bank_masks, base_bits(mapping))):
        if ((bank >> i) & 1) ^ parity(paddr & mask & ~(1 << base)):
            paddr |= 1 << base
    return paddr


def _lines(paddr: int, size: int):
    end = paddr + size
    cursor = paddr
    while cursor < end:
        line = cursor & ~(LINE_BYTES - 1)
        chunk = min(line + LINE_BYTES - cursor, end - cursor)
        yield cursor, chunk
        cursor += chunk


def raw_read(dram, paddr: int, size: int) -> bytes:
    """``DramModule.raw_read`` translating every 64-byte line separately."""
    out = bytearray()
    for cursor, chunk in _lines(paddr, size):
        bank, row, col = phys_to_dram(dram.mapping, cursor)
        data = dram._rows.get((bank, row))
        out += bytes(chunk) if data is None else data[col:col + chunk]
    return bytes(out)


def raw_write(dram, paddr: int, payload: bytes) -> None:
    """``DramModule.raw_write`` translating every 64-byte line separately."""
    pos = 0
    for cursor, chunk in _lines(paddr, len(payload)):
        bank, row, col = phys_to_dram(dram.mapping, cursor)
        dram._row_data(bank, row)[col:col + chunk] = payload[pos:pos + chunk]
        pos += chunk


def page_rows(mapping, ppn: int):
    """Distinct (bank, row) pairs of page ``ppn``'s lines, in line order."""
    seen = []
    for off in range(0, 4096, LINE_BYTES):
        bank, row, _col = phys_to_dram(mapping, (ppn << 12) + off)
        if (bank, row) not in seen:
            seen.append((bank, row))
    return seen
