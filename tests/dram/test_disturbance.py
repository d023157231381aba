"""Tests for the rowhammer disturbance fault model.

The engine-level suites run on the shipped dense store; each has a
``...Reference`` subclass that reruns it on the dict reference store,
so the scalar ``deposit``/``heal``/``accumulated`` semantics are pinned
for both directly, not only differentially.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.dense import DenseDisturbanceEngine
from repro.dram.disturbance import DisturbanceParams
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError

from ..reference_disturbance import ReferenceDisturbanceEngine


def geo() -> DramGeometry:
    return DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192)


def make_engine(engine_cls, **overrides):
    params = dict(
        base_flip_threshold=1000.0,
        threshold_max_factor=2.0,
        max_distance=6,
        distance_decay=0.5,
        row_vuln_probability=1.0,  # every row vulnerable: deterministic tests
        max_vuln_cells_per_row=2,
        seed=99,
    )
    params.update(overrides)
    return engine_cls(geo(), DisturbanceParams(**params))


class EngineSuite:
    """Base of the engine-level suites: ``ENGINE`` picks the store."""

    ENGINE = DenseDisturbanceEngine

    def engine(self, **overrides):
        return make_engine(self.ENGINE, **overrides)


class TestParams:
    def test_weight_decay(self):
        p = DisturbanceParams(distance_decay=0.5, max_distance=6)
        assert p.weight(1) == 1.0
        assert p.weight(2) == 0.5
        assert p.weight(3) == 0.25
        assert p.weight(6) == 0.5 ** 5

    def test_weight_out_of_range(self):
        p = DisturbanceParams(max_distance=6)
        assert p.weight(0) == 0.0
        assert p.weight(7) == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(base_flip_threshold=0),
        dict(threshold_max_factor=0.5),
        dict(max_distance=0),
        dict(max_distance=17),
        dict(distance_decay=0.0),
        dict(distance_decay=1.5),
        dict(row_vuln_probability=-0.1),
        dict(row_vuln_probability=1.1),
        dict(max_vuln_cells_per_row=0),
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigError):
            DisturbanceParams(**kwargs)


class TestCellMap(EngineSuite):
    def test_deterministic(self):
        e1, e2 = self.engine(), self.engine()
        assert e1.vulnerable_cells(3, 17) == e2.vulnerable_cells(3, 17)

    def test_different_rows_differ(self):
        e = self.engine()
        all_same = all(
            e.vulnerable_cells(0, r) == e.vulnerable_cells(0, r + 1)
            for r in range(10)
        )
        assert not all_same

    def test_cells_sorted_by_threshold(self):
        e = self.engine()
        for row in range(20):
            cells = e.vulnerable_cells(0, row)
            thresholds = [c.threshold for c in cells]
            assert thresholds == sorted(thresholds)

    def test_probability_zero_means_no_cells(self):
        e = self.engine(row_vuln_probability=0.0)
        assert all(not e.is_vulnerable(0, r) for r in range(64))

    def test_min_threshold(self):
        e = self.engine()
        row = next(r for r in range(64) if e.is_vulnerable(0, r))
        cells = e.vulnerable_cells(0, row)
        assert e.min_threshold(0, row) == cells[0].threshold

    def test_min_threshold_none_when_safe(self):
        e = self.engine(row_vuln_probability=0.0)
        assert e.min_threshold(0, 0) is None

    def test_thresholds_at_least_base(self):
        e = self.engine()
        for row in range(64):
            for cell in e.vulnerable_cells(0, row):
                assert cell.threshold >= 1000.0
                assert cell.threshold <= 2000.0
                assert cell.from_value in (0, 1)
                assert 0 <= cell.bit_offset < 8192 * 8


class TestAccumulation(EngineSuite):
    def test_deposit_accumulates(self):
        e = self.engine()
        e.deposit(0, 10, 100.0, epoch=0, now_ns=0)
        e.deposit(0, 10, 50.0, epoch=0, now_ns=10)
        assert e.accumulated(0, 10, epoch=0) == pytest.approx(150.0)

    def test_epoch_rollover_heals(self):
        e = self.engine()
        e.deposit(0, 10, 500.0, epoch=0, now_ns=0)
        assert e.accumulated(0, 10, epoch=1) == 0.0
        e.deposit(0, 10, 10.0, epoch=1, now_ns=0)
        assert e.accumulated(0, 10, epoch=1) == pytest.approx(10.0)

    def test_heal_resets(self):
        e = self.engine()
        e.deposit(0, 10, 500.0, epoch=0, now_ns=0)
        e.heal(0, 10)
        assert e.accumulated(0, 10, epoch=0) == 0.0

    def test_out_of_range_row_ignored(self):
        e = self.engine()
        assert e.deposit(0, -1, 100.0, epoch=0, now_ns=0) == []
        assert e.deposit(0, 64, 100.0, epoch=0, now_ns=0) == []

    def test_zero_or_negative_units_noop(self):
        e = self.engine()
        assert e.deposit(0, 5, 0.0, epoch=0, now_ns=0) == []
        assert e.accumulated(0, 5, epoch=0) == 0.0


class ActivationCases(EngineSuite):
    def test_activation_recharges_self(self):
        e = self.engine()
        e.deposit(0, 10, 900.0, epoch=0, now_ns=0)
        e.on_activate(0, 10, count=1, epoch=0, now_ns=0)
        assert e.accumulated(0, 10, epoch=0) == 0.0

    def test_activation_disturbs_neighbors_with_decay(self):
        e = self.engine(row_vuln_probability=0.0)
        e.on_activate(0, 10, count=100, epoch=0, now_ns=0)
        assert e.accumulated(0, 9, epoch=0) == pytest.approx(100.0)
        assert e.accumulated(0, 11, epoch=0) == pytest.approx(100.0)
        assert e.accumulated(0, 8, epoch=0) == pytest.approx(50.0)
        assert e.accumulated(0, 12, epoch=0) == pytest.approx(50.0)
        assert e.accumulated(0, 16, epoch=0) == pytest.approx(100 * 0.5 ** 5)
        assert e.accumulated(0, 17, epoch=0) == 0.0  # beyond max distance

    def test_flip_fires_on_threshold_crossing(self):
        e = self.engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = e.min_threshold(0, row)
        flips = e.on_activate(0, row - 1, count=int(threshold) + 1,
                              epoch=0, now_ns=123)
        mine = [f for f in flips if f.row == row]
        assert mine, "crossing the easiest cell's threshold must flip"
        assert mine[0].at_ns == 123
        assert mine[0].bank == 0

    def test_flip_fires_only_once_per_crossing(self):
        e = self.engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = int(e.min_threshold(0, row))
        e.on_activate(0, row - 1, count=threshold + 1, epoch=0, now_ns=0)
        # Further hammering must not re-emit the same cell's flip.
        flips = e.on_activate(0, row - 1, count=10, epoch=0, now_ns=1)
        offsets = {f.bit_offset for f in flips if f.row == row}
        first_cell = e.vulnerable_cells(0, row)[0]
        assert first_cell.bit_offset not in offsets

    def test_double_sided_twice_as_fast(self):
        e = self.engine(row_vuln_probability=0.0)
        e.on_activate(0, 9, count=100, epoch=0, now_ns=0)
        e.on_activate(0, 11, count=100, epoch=0, now_ns=0)
        assert e.accumulated(0, 10, epoch=0) == pytest.approx(200.0)

    def test_refresh_window_bounds_hammering(self):
        # Hammering split across two epochs never flips if each half is
        # below threshold — the core reason the 64 ms refresh matters.
        e = self.engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = int(e.min_threshold(0, row))
        half = threshold // 2 + 1
        flips_a = e.on_activate(0, row - 1, count=half, epoch=0, now_ns=0)
        flips_b = e.on_activate(0, row - 1, count=half, epoch=1, now_ns=0)
        assert not [f for f in flips_a if f.row == row]
        assert not [f for f in flips_b if f.row == row]

    def test_victim_refresh_mid_hammer_prevents_flip(self):
        # This is SoftTRR's whole mechanism in miniature.
        e = self.engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = int(e.min_threshold(0, row))
        half = threshold // 2 + 1
        e.on_activate(0, row - 1, count=half, epoch=0, now_ns=0)
        e.heal(0, row)  # the software refresh
        flips = e.on_activate(0, row - 1, count=half, epoch=0, now_ns=0)
        assert not [f for f in flips if f.row == row]


class TestCellMapReference(TestCellMap):
    ENGINE = ReferenceDisturbanceEngine


class TestAccumulationReference(TestAccumulation):
    ENGINE = ReferenceDisturbanceEngine


class TestActivation(ActivationCases):
    @given(count=st.integers(min_value=1, max_value=500),
           distance=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_accumulation_matches_weight_formula(self, count, distance):
        # One hypothesis test covering both stores (hypothesis rejects
        # a @given method inherited by a second test class).
        expected = count * (0.5 ** (distance - 1))
        for engine_cls in (DenseDisturbanceEngine,
                           ReferenceDisturbanceEngine):
            e = make_engine(engine_cls, row_vuln_probability=0.0)
            e.on_activate(0, 30, count=count, epoch=0, now_ns=0)
            for victim in (30 + distance, 30 - distance):
                assert (e.accumulated(0, victim, epoch=0)
                        == pytest.approx(expected))


class TestActivationReference(ActivationCases):
    ENGINE = ReferenceDisturbanceEngine
