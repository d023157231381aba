"""The per-process shared vulnerable-cell map.

Engines built from equal :class:`DisturbanceParams` and geometry read
one :class:`CellMap`.  These tests check it against an independent
derivation that draws the fault model's ``derive_rng("cells", seed,
bank, row)`` stream directly, never through an engine: its cells, who
shares it, the memoised ``cheapest_victim`` scan, and that snapshots,
deep copies and pickles keep the same cells.  ``inject_cells`` (the
one way tests plant cells) must keep planted cells on its own engine.
"""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.dense import DenseDisturbanceEngine
from repro.dram.disturbance import (
    DisturbanceParams,
    VulnerableCell,
    shared_cell_map,
)
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError
from repro.machine import Machine
from repro.rng import derive_rng

from ..cell_maps import inject_cells
from ..reference_disturbance import ReferenceDisturbanceEngine

ENGINES = (DenseDisturbanceEngine, ReferenceDisturbanceEngine)

GEOMETRIES = (
    DramGeometry(num_banks=1, rows_per_bank=16, row_bytes=512),
    DramGeometry(num_banks=4, rows_per_bank=64, row_bytes=4096),
    DramGeometry(num_banks=8, rows_per_bank=32, row_bytes=8192),
    DramGeometry(num_banks=2, rows_per_bank=128, row_bytes=1024),
)


def oracle_cells(params, row_bytes, bank, row):
    """The fault model's cells of one row, drawn straight from its
    ``derive_rng`` stream."""
    rng = derive_rng("cells", params.seed, bank, row)
    if not rng.random() < params.row_vuln_probability:
        return ()
    drawn = []
    for _ in range(rng.randint(1, params.max_vuln_cells_per_row)):
        square = rng.random() ** 2
        threshold = params.base_flip_threshold * (
            1.0 + (params.threshold_max_factor - 1.0) * square)
        bit = rng.randrange(row_bytes * 8)
        drawn.append(VulnerableCell(bit_offset=bit, threshold=threshold,
                                    from_value=rng.randint(0, 1)))
    return tuple(sorted(drawn, key=lambda cell: cell.threshold))


def oracle_cheapest(params, geometry, margin):
    """Brute-force ``cheapest_victim``: first strict minimum in
    (bank, row) order, or ``None``."""
    best = None
    for bank in range(geometry.num_banks):
        for row in range(margin, geometry.rows_per_bank - margin):
            cells = oracle_cells(params, geometry.row_bytes, bank, row)
            if cells and (best is None or cells[0].threshold < best[2]):
                best = (bank, row, cells[0].threshold)
    return best


disturbance_params = st.builds(
    DisturbanceParams,
    base_flip_threshold=st.floats(1.0, 1e6),
    threshold_max_factor=st.floats(1.0, 16.0),
    max_distance=st.integers(1, 16),
    distance_decay=st.floats(0.01, 1.0),
    row_vuln_probability=st.floats(0.0, 1.0),
    max_vuln_cells_per_row=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)


class TestDerivation:
    @given(params=disturbance_params, geometry=st.sampled_from(GEOMETRIES),
           data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_cells_equal_the_oracle(self, params, geometry, data):
        engine_cls = data.draw(st.sampled_from(ENGINES))
        engine = engine_cls(geometry, params)
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, geometry.num_banks - 1),
                      st.integers(0, geometry.rows_per_bank - 1)),
            min_size=1, max_size=12))
        for bank, row in rows:
            expected = oracle_cells(params, geometry.row_bytes, bank, row)
            assert engine.vulnerable_cells(bank, row) == expected
            assert engine.is_vulnerable(bank, row) == bool(expected)
            assert engine.cell_map.cells[(bank, row)] == expected
            assert ((bank, row) in engine.cell_map.vulnerable) == bool(
                expected)
        # A later engine reads the very tuples the first one derived.
        other = ENGINES[0](geometry, params)
        for bank, row in rows:
            assert (other.vulnerable_cells(bank, row)
                    is engine.vulnerable_cells(bank, row))

    @given(params=disturbance_params, geometry=st.sampled_from(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_cheapest_victim_equals_brute_force(self, params, geometry):
        engine = DenseDisturbanceEngine(geometry, params)
        for margin in range(7):
            expected = oracle_cheapest(params, geometry, margin)
            if expected is None:
                with pytest.raises(ConfigError):
                    engine.cheapest_victim(margin)
                continue
            assert engine.cheapest_victim(margin) == expected
            # Memoised on the shared map: a fresh engine gets it too.
            assert engine.cell_map.cheapest[margin] == expected
            fresh = ReferenceDisturbanceEngine(geometry, params)
            assert fresh.cheapest_victim(margin) == expected

    def test_no_vulnerable_rows_raises_every_time(self):
        geometry = GEOMETRIES[1]
        params = DisturbanceParams(row_vuln_probability=0.0, seed=41)
        engine = DenseDisturbanceEngine(geometry, params)
        for _ in range(3):
            with pytest.raises(ConfigError, match="no vulnerable rows"):
                engine.cheapest_victim(4)
            assert 4 not in engine.cell_map.cheapest
        with pytest.raises(ConfigError):
            DenseDisturbanceEngine(geometry, params).cheapest_victim(4)


class TestSharing:
    GEOMETRY = GEOMETRIES[1]
    PARAMS = DisturbanceParams(seed=5)

    def test_equal_params_and_geometry_share_one_map(self):
        a = DenseDisturbanceEngine(self.GEOMETRY, self.PARAMS)
        b = ReferenceDisturbanceEngine(
            replace(self.GEOMETRY), replace(self.PARAMS))
        assert a.cell_map is b.cell_map
        assert a.cell_map is shared_cell_map(self.PARAMS, self.GEOMETRY)

    @pytest.mark.parametrize("change", [
        {"seed": 6},
        {"base_flip_threshold": 19_999.0},
        {"row_vuln_probability": 0.5},
        {"max_vuln_cells_per_row": 2},
        {"threshold_max_factor": 4.0},
        {"max_distance": 5},
        {"distance_decay": 0.5},
    ])
    def test_different_params_never_share(self, change):
        a = DenseDisturbanceEngine(self.GEOMETRY, self.PARAMS)
        b = DenseDisturbanceEngine(self.GEOMETRY,
                                   replace(self.PARAMS, **change))
        assert a.cell_map is not b.cell_map

    def test_different_row_bytes_never_share(self):
        a = DenseDisturbanceEngine(self.GEOMETRY, self.PARAMS)
        wider = replace(self.GEOMETRY, row_bytes=8192)
        b = DenseDisturbanceEngine(wider, self.PARAMS)
        assert a.cell_map is not b.cell_map
        # Bit offsets are drawn over the row, so the cells differ too.
        for row in range(self.GEOMETRY.rows_per_bank):
            assert b.vulnerable_cells(0, row) == oracle_cells(
                self.PARAMS, 8192, 0, row)


class TestCopies:
    def test_snapshot_restore_keeps_the_map(self):
        m = Machine(machine="tiny")
        engine = m.dram.engine
        rows = [(bank, row) for bank in range(2) for row in range(32)]
        before = {key: engine.vulnerable_cells(*key) for key in rows}
        snap = m.snapshot()
        m.restore(snap)
        restored = m.dram.engine
        assert restored is not engine
        assert restored.cell_map is engine.cell_map
        assert {key: restored.vulnerable_cells(*key)
                for key in rows} == before

    def test_deepcopy_and_pickle_keep_the_cells(self):
        geometry = GEOMETRIES[2]
        params = DisturbanceParams(seed=9, row_vuln_probability=0.5)
        engine = DenseDisturbanceEngine(geometry, params)
        rows = [(bank, row) for bank in range(8) for row in range(32)]
        before = [engine.vulnerable_cells(*key) for key in rows]
        assert copy.deepcopy(engine).cell_map is engine.cell_map
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.cell_map is engine.cell_map
        assert [clone.vulnerable_cells(*key) for key in rows] == before
        # Only the key travels: a full map pickles as small as an
        # empty one.
        empty = shared_cell_map(replace(params, seed=10), geometry)
        assert (len(pickle.dumps(engine.cell_map))
                <= len(pickle.dumps(empty)) + 8)


class TestInjectCells:
    CELLS = [VulnerableCell(bit_offset=3, threshold=10.0, from_value=1)]

    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=["dense", "dict"])
    def test_injected_cells_stay_on_their_engine(self, engine_cls):
        geometry = GEOMETRIES[1]
        params = DisturbanceParams(row_vuln_probability=0.0, seed=3)
        planted = engine_cls(geometry, params)
        inject_cells(planted, 0, 5, self.CELLS)
        assert planted.vulnerable_cells(0, 5) == tuple(self.CELLS)
        assert planted.is_vulnerable(0, 5)
        # A snapshot's deep copy keeps the engine's private map.
        assert copy.deepcopy(planted).cell_map is planted.cell_map
        fresh = engine_cls(geometry, params)
        assert fresh.vulnerable_cells(0, 5) == ()
        assert not fresh.is_vulnerable(0, 5)
        assert fresh.deposit(0, 5, 10.0, epoch=0, now_ns=0) == []
        shared = shared_cell_map(params, geometry)
        assert planted.cell_map is not shared
        assert (0, 5) not in shared.vulnerable

    def test_injection_keeps_derived_cells_and_resets_the_victim(self):
        geometry = GEOMETRIES[1]
        params = DisturbanceParams(seed=12)
        engine = DenseDisturbanceEngine(geometry, params)
        bank, row, _ = engine.cheapest_victim(4)
        inject_cells(engine, 3, 40, [
            VulnerableCell(bit_offset=0, threshold=1.0, from_value=0)])
        assert engine.cheapest_victim(4) == (3, 40, 1.0)
        assert engine.vulnerable_cells(bank, row) == oracle_cells(
            params, geometry.row_bytes, bank, row)
        fresh = DenseDisturbanceEngine(geometry, params)
        assert fresh.cheapest_victim(4)[:2] == (bank, row)
