"""Rowhammer charge-disturbance fault model.

The model follows the experimental picture of Kim et al. [26], which the
paper's design explicitly targets (Section III-A):

* Activating (opening) a row deposits *disturbance* into nearby victim
  rows.  Victims can be up to ``max_distance`` (6) rows away; the deposit
  per activation falls off geometrically with distance,
  ``w(d) = distance_decay ** (d - 1)``.
* A small, fixed subset of cells is *vulnerable* (real DIMMs flip in the
  same cells reproducibly — that is what makes flip *templating* work).
  A vulnerable cell flips when its row's accumulated disturbance crosses
  the cell's threshold.  The most vulnerable cells flip after
  ``base_flip_threshold`` weighted activations — calibrated to the
  paper's #ACT ~= 20 K figure (Section IV-E), which together with an
  activation period >= tRC + controller overhead puts the minimum
  time-to-first-flip just above SoftTRR's 1 ms protection window.
* Activating or refreshing the victim row itself recharges its cells and
  zeroes the accumulator — this is precisely the mechanism SoftTRR's Row
  Refresher relies on ("a read-access to a row can automatically recharge
  the row", Section IV-D).
* Auto-refresh heals every row once per refresh window.  The engine
  implements this lazily with epoch tags instead of touching every row.
* Flips are one-directional per cell (true-cell 1->0 vs anti-cell 0->1),
  so a flip only corrupts data whose current bit value matches the
  cell's charged state.

All randomness (which rows have vulnerable cells, where, and how hard
they are) is a pure function of ``(seed, bank, row)``, so every machine
profile has a stable, reproducible flip map — the property templating
and the security evaluation depend on.  Being pure, the map is derived
once per process: engines with equal params and geometry share one
:class:`CellMap`.

:class:`DisturbanceCore` (this module) holds the parts of the model
that do not depend on how accumulators are stored: the handle on the
shared cell map, the victim plans and the counters.  The simulator's one
accumulator store, :class:`~repro.dram.dense.DenseDisturbanceEngine`,
derives from it.  The test suite keeps an independent dict-keyed store
on the same core as its reference model and checks the two observably
identical (``tests/perf/test_generative_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigError
from ..rng import derive_rng
from .geometry import DramGeometry
from .remap import IdentityRemap, RowRemap


def crosses(before: float, threshold: float, after: float) -> bool:
    """Whether an accumulator step ``before -> after`` fires a cell.

    The intended boundary semantics, pinned by the regression tests in
    ``tests/dram/test_deposit_boundary.py``: a cell fires on the deposit
    that first *reaches* its threshold (``after == threshold`` flips) and
    never re-fires while the accumulator sits at or above it
    (``before == threshold`` does not flip again) — i.e. exactly
    ``before < threshold <= after``.
    """
    return before < threshold <= after


@dataclass(frozen=True)
class VulnerableCell:
    """One flippable cell in a DRAM row.

    ``bit_offset`` indexes the bit within the row (0-based from the row's
    first byte's LSB).  ``from_value`` is the charged value the cell loses
    when it flips: a flip turns ``from_value`` into ``1 - from_value`` and
    only applies if the stored bit currently equals ``from_value``.
    """

    bit_offset: int
    threshold: float
    from_value: int


@dataclass(frozen=True)
class FlipEvent:
    """A bit flip the disturbance engine just produced."""

    bank: int
    row: int
    bit_offset: int
    from_value: int
    at_ns: int


@dataclass(frozen=True)
class DisturbanceParams:
    """Knobs of the fault model.

    ``base_flip_threshold`` is in *weighted activation units*: a single
    activation of an adjacent (distance-1) row deposits exactly 1 unit.
    """

    base_flip_threshold: float = 20_000.0
    threshold_max_factor: float = 8.0
    max_distance: int = 6
    distance_decay: float = 0.6
    row_vuln_probability: float = 0.25
    max_vuln_cells_per_row: int = 3
    seed: int = 1

    def __post_init__(self) -> None:
        if self.base_flip_threshold <= 0:
            raise ConfigError("flip threshold must be positive")
        if self.threshold_max_factor < 1.0:
            raise ConfigError("threshold_max_factor must be >= 1")
        if not 1 <= self.max_distance <= 16:
            raise ConfigError("max_distance must be in [1, 16]")
        if not 0.0 < self.distance_decay <= 1.0:
            raise ConfigError("distance_decay must be in (0, 1]")
        if not 0.0 <= self.row_vuln_probability <= 1.0:
            raise ConfigError("row_vuln_probability must be a probability")
        if self.max_vuln_cells_per_row < 1:
            raise ConfigError("need at least one cell per vulnerable row")

    def weight(self, distance: int) -> float:
        """Disturbance deposited per activation at ``distance`` rows away."""
        if distance < 1 or distance > self.max_distance:
            return 0.0
        return self.distance_decay ** (distance - 1)


class CellMap:
    """The vulnerable-cell map of one ``(params, geometry)``.

    Every row's cells are a pure function of ``(params, row_bytes,
    bank, row)``, so all engines built from equal params and geometry
    read one map, handed out by :func:`shared_cell_map`.  It fills
    lazily: :meth:`DisturbanceCore.vulnerable_cells` stores exactly what
    its derivation returns and :meth:`DisturbanceCore.cheapest_victim`
    its scan result, and nothing else writes to it.  Being pure, the
    map is never copied: ``deepcopy`` returns it and a pickle carries
    only its key.
    """

    __slots__ = ("params", "geometry", "cells", "vulnerable", "cheapest")

    def __init__(self, params: DisturbanceParams,
                 geometry: DramGeometry) -> None:
        self.params = params
        self.geometry = geometry
        #: (bank, row) -> tuple of VulnerableCell, derived on first use.
        self.cells: Dict[Tuple[int, int], Tuple[VulnerableCell, ...]] = {}
        #: Keys of rows known to have at least one cell: a cheap set the
        #: batched paths probe instead of re-deriving cell tuples.
        self.vulnerable: Set[Tuple[int, int]] = set()
        #: margin -> the (bank, row, threshold) cheapest_victim found.
        self.cheapest: Dict[int, Tuple[int, int, float]] = {}

    def __deepcopy__(self, memo) -> "CellMap":
        return self

    def __reduce__(self):
        return (shared_cell_map, (self.params, self.geometry))


@lru_cache(maxsize=32)
def shared_cell_map(params: DisturbanceParams,
                    geometry: DramGeometry) -> CellMap:
    """This process's one :class:`CellMap` for ``(params, geometry)``."""
    return CellMap(params, geometry)


class DisturbanceCore:
    """Store-independent skeleton of a disturbance engine.

    Owns everything that is *not* the accumulator store: a handle on
    the shared vulnerable-cell map (:class:`CellMap`), the cached
    per-aggressor victim plans (per engine: they follow the remap), and
    the two counters the telemetry layer samples.  A store
    adds ``deposit``, ``heal``, ``accumulated``,
    ``vulnerable_accumulated`` and the batched ``hammer_kernel`` /
    ``hammer_periodic`` that :class:`~repro.dram.module.DramModule`
    calls.

    The engines are deliberately clock-free: callers pass the current
    refresh epoch and timestamp so they can be unit-tested in isolation.
    """

    def __init__(self, geometry: DramGeometry, params: DisturbanceParams,
                 remap: Optional[RowRemap] = None) -> None:
        self.geometry = geometry
        self.params = params
        #: In-DRAM row remapping: disturbance follows *physical*
        #: adjacency, so victims of an activation are the logical rows
        #: whose physical positions flank the activated row.
        self.remap = remap or IdentityRemap(geometry.rows_per_bank)
        self.cell_map = shared_cell_map(params, geometry)
        # (bank, row) -> cached victim plan (see victim_plan()).
        self._plans: Dict[
            Tuple[int, int],
            Tuple[Tuple[int, float, Tuple[VulnerableCell, ...]], ...],
        ] = {}
        self.total_deposits = 0
        self.total_flip_events = 0

    # --------------------------------------------------------- cell map
    def vulnerable_cells(self, bank: int, row: int) -> Tuple[VulnerableCell, ...]:
        """The (deterministic) vulnerable cells of a row."""
        key = (bank, row)
        cached = self.cell_map.cells.get(key)
        if cached is not None:
            return cached
        rng = derive_rng("cells", self.params.seed, bank, row)
        cells: List[VulnerableCell] = []
        if rng.random() < self.params.row_vuln_probability:
            count = rng.randint(1, self.params.max_vuln_cells_per_row)
            row_bits_total = self.geometry.row_bytes * 8
            for _ in range(count):
                # Square the uniform draw so thresholds skew toward the
                # base: most vulnerable rows have at least one "easy" cell,
                # as the HC_first distributions in [26] show.
                spread = (self.params.threshold_max_factor - 1.0) * rng.random() ** 2
                cells.append(
                    VulnerableCell(
                        bit_offset=rng.randrange(row_bits_total),
                        threshold=self.params.base_flip_threshold * (1.0 + spread),
                        from_value=rng.randint(0, 1),
                    )
                )
            cells.sort(key=lambda c: c.threshold)
        result = tuple(cells)
        self.cell_map.cells[key] = result
        if result:
            self.cell_map.vulnerable.add(key)
        return result

    def is_vulnerable(self, bank: int, row: int) -> bool:
        """Whether the row has any flippable cell."""
        key = (bank, row)
        cell_map = self.cell_map
        if key in cell_map.vulnerable:
            return True
        if key in cell_map.cells:
            return False
        return bool(self.vulnerable_cells(bank, row))

    def min_threshold(self, bank: int, row: int) -> Optional[float]:
        """Threshold of the row's easiest cell, or ``None``."""
        cells = self.vulnerable_cells(bank, row)
        return cells[0].threshold if cells else None

    def cheapest_victim(self, margin: int) -> Tuple[int, int, float]:
        """(bank, row, threshold) of the row with the easiest cell.

        Rows within ``margin`` of a bank edge are skipped so a pattern
        with offsets up to ``margin`` fits around the victim; ties go
        to the lowest (bank, row).  The result is remembered on the
        shared cell map; a failed scan is not, so it raises every time.
        """
        best = self.cell_map.cheapest.get(margin)
        if best is not None:
            return best
        for bank in range(self.geometry.num_banks):
            for row in range(margin, self.geometry.rows_per_bank - margin):
                cells = self.vulnerable_cells(bank, row)
                if cells and (best is None or cells[0].threshold < best[2]):
                    best = (bank, row, cells[0].threshold)
        if best is None:
            raise ConfigError("machine seed produced no vulnerable rows")
        self.cell_map.cheapest[margin] = best
        return best

    def victim_plan(
        self, bank: int, row: int
    ) -> Tuple[Tuple[int, float, Tuple[VulnerableCell, ...]], ...]:
        """The victims one activation of (bank, row) disturbs, in the
        exact order :meth:`on_activate` deposits into them.

        Each entry is ``(victim_row, weight, cells)``.  The plan is a
        pure function of the geometry/remap/seed, so it is cached; the
        batched hammer paths iterate it instead of re-walking
        ``neighbors_at`` per activation.
        """
        key = (bank, row)
        plan = self._plans.get(key)
        if plan is None:
            entries: List[Tuple[int, float, Tuple[VulnerableCell, ...]]] = []
            for distance in range(1, self.params.max_distance + 1):
                weight = self.params.weight(distance)
                for victim in self.remap.neighbors_at(row, distance):
                    entries.append(
                        (victim, weight, self.vulnerable_cells(bank, victim))
                    )
            plan = tuple(entries)
            self._plans[key] = plan
        return plan

    # ----------------------------------------------------- shared logic
    def on_activate(
        self, bank: int, row: int, count: int, epoch: int, now_ns: int
    ) -> List[FlipEvent]:
        """Record ``count`` activations of (bank, row).

        Opening a row recharges it (its own accumulator resets) and
        disturbs every victim within ``max_distance`` rows on both sides.
        Returns all flips produced anywhere.
        """
        if count <= 0:
            return []
        self.heal(bank, row)
        flips: List[FlipEvent] = []
        for distance in range(1, self.params.max_distance + 1):
            units = self.params.weight(distance) * count
            for victim in self.remap.neighbors_at(row, distance):
                flips.extend(self.deposit(bank, victim, units, epoch, now_ns))
        return flips

    def deposit_batch(
        self, bank: int, row: int, units: float, count: int,
        epoch: int, now_ns: int,
    ) -> List[FlipEvent]:
        """``count`` equal deposits of ``units`` into (bank, row) at once.

        Equivalent to ``count`` successive :meth:`deposit` calls at the
        same timestamp.  Vulnerability is a static property of the cell
        map — never of the accumulator's current epoch bucket — so a
        vulnerable row always takes the exact per-deposit path, even
        when its bucket still carries a stale epoch tag (pinned by
        ``tests/dram/test_deposit_boundary.py``).  For rows with *no*
        vulnerable cells the per-cell scan and the per-deposit
        accumulator walk are skipped entirely: the row can never flip,
        so its accumulator only needs the fused sum (``units * count``),
        which may differ from the sequential float sum in the last ULPs
        — the one sanctioned relaxation of the batching invariant (see
        DESIGN.md).
        """
        if count <= 0 or units <= 0:
            return []
        if row < 0 or row >= self.geometry.rows_per_bank:
            return []
        if not self.is_vulnerable(bank, row):
            self._fused_add(bank, row, units * count, epoch)
            self.total_deposits += count
            return []
        flips: List[FlipEvent] = []
        for _ in range(count):
            flips.extend(self.deposit(bank, row, units, epoch, now_ns))
        return flips

    # ------------------------------------------------- store interface
    def deposit(self, bank: int, row: int, units: float, epoch: int,
                now_ns: int) -> List[FlipEvent]:
        raise NotImplementedError

    def heal(self, bank: int, row: int) -> None:
        raise NotImplementedError

    def accumulated(self, bank: int, row: int, epoch: int) -> float:
        raise NotImplementedError

    def vulnerable_accumulated(self, epoch: int) -> Dict[Tuple[int, int], float]:
        raise NotImplementedError

    def _fused_add(self, bank: int, row: int, amount: float,
                   epoch: int) -> None:
        raise NotImplementedError
