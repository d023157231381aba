"""Hand-built vulnerable cells for one engine at a time.

Engines built from equal :class:`DisturbanceParams` and geometry share
one per-process :class:`~repro.dram.disturbance.CellMap`, which only the
fault model's own derivation may fill.  A test that plants cells must
therefore first give its engine a private copy of the map, or the
planted cells would leak into every later engine with equal params.
"""

from __future__ import annotations

from repro.dram.disturbance import CellMap


class PrivateCellMap(CellMap):
    """A copy of a shared cell map that one engine owns alone.

    It still deep-copies to itself, so a ``Machine.snapshot`` keeps it;
    a pickle carries only the key, so planted cells do not survive one.
    """


def inject_cells(engine, bank, row, cells):
    """Install a hand-built cell tuple for one row of ``engine`` only."""
    cell_map = engine.cell_map
    if not isinstance(cell_map, PrivateCellMap):
        cell_map = PrivateCellMap(engine.params, engine.geometry)
        cell_map.cells.update(engine.cell_map.cells)
        cell_map.vulnerable.update(engine.cell_map.vulnerable)
        engine.cell_map = cell_map
    key = (bank, row)
    cell_map.cells[key] = tuple(cells)
    cell_map.vulnerable.discard(key)
    if cells:
        cell_map.vulnerable.add(key)
    cell_map.cheapest.clear()
    return key
