"""The dict-keyed reference disturbance store.

The simulator ships one accumulator store,
:class:`~repro.dram.dense.DenseDisturbanceEngine`.  This module keeps an
independent second store on the same :class:`DisturbanceCore` — sparse
``(bank, row) -> [epoch, units]`` buckets, its own generic batch kernel
and no closed-form periodic kernel — as the reference model the
differential suites replay every dense run against.

Attach it to a freshly built machine with :func:`use_store`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.dram.disturbance import (
    DisturbanceCore,
    DisturbanceParams,
    FlipEvent,
    crosses,
)
from repro.dram.geometry import DramGeometry
from repro.dram.remap import RowRemap

#: The two accumulator stores, by the ids the parametrized suites use.
STORES = ("dense", "dict")


def use_store(dram, store: str) -> None:
    """Put a freshly built ``dram`` on the named store (see :data:`STORES`).

    ``"dict"`` swaps in a reference engine.  Only ``dram.engine`` holds
    the engine, so the swap is complete — but it must happen before the
    first activation, while the shipped store is still empty.
    """
    assert store in STORES, store
    if store == "dense":
        return
    old = dram.engine
    assert dram.total_activations == 0 and old.total_deposits == 0, (
        "attach the reference engine before the first activation")
    dram.engine = ReferenceDisturbanceEngine(dram.geometry, old.params,
                                             remap=dram.remap)


class ReferenceDisturbanceEngine(DisturbanceCore):
    """The dict-keyed accumulator store (the differential reference).

    Accumulators live in a sparse ``(bank, row) -> [epoch, units]`` dict.
    It shares only :class:`DisturbanceCore` (cell map, victim plans,
    counters) with the shipped dense store, so any run of the dense
    store can be replayed against it bit for bit.
    """

    def __init__(self, geometry: DramGeometry, params: DisturbanceParams,
                 remap: Optional[RowRemap] = None) -> None:
        super().__init__(geometry, params, remap=remap)
        # (bank, row) -> [epoch, accumulated_units]
        self._acc: Dict[Tuple[int, int], List[float]] = {}

    # ------------------------------------------------------ accumulation
    def _bucket(self, bank: int, row: int, epoch: int) -> List[float]:
        key = (bank, row)
        bucket = self._acc.get(key)
        if bucket is None:
            bucket = [epoch, 0.0]
            self._acc[key] = bucket
        elif bucket[0] != epoch:
            # Lazy auto-refresh: the window rolled over since this row's
            # accumulator was last touched, so the charge was restored.
            bucket[0] = epoch
            bucket[1] = 0.0
        return bucket

    def deposit(
        self, bank: int, row: int, units: float, epoch: int, now_ns: int
    ) -> List[FlipEvent]:
        """Add ``units`` of disturbance to (bank, row); return new flips."""
        if units <= 0:
            return []
        if row < 0 or row >= self.geometry.rows_per_bank:
            return []
        bucket = self._bucket(bank, row, epoch)
        before = bucket[1]
        after = before + units
        bucket[1] = after
        self.total_deposits += 1
        flips: List[FlipEvent] = []
        for cell in self.vulnerable_cells(bank, row):
            if crosses(before, cell.threshold, after):
                flips.append(
                    FlipEvent(
                        bank=bank,
                        row=row,
                        bit_offset=cell.bit_offset,
                        from_value=cell.from_value,
                        at_ns=now_ns,
                    )
                )
        self.total_flip_events += len(flips)
        return flips

    def _fused_add(self, bank: int, row: int, amount: float,
                   epoch: int) -> None:
        bucket = self._bucket(bank, row, epoch)
        bucket[1] += amount

    def heal(self, bank: int, row: int) -> None:
        """Refresh (recharge) a row: accumulated disturbance is cleared."""
        key = (bank, row)
        bucket = self._acc.get(key)
        if bucket is not None:
            bucket[1] = 0.0

    def accumulated(self, bank: int, row: int, epoch: int) -> float:
        """Disturbance units accumulated by (bank, row) in ``epoch``."""
        key = (bank, row)
        bucket = self._acc.get(key)
        if bucket is None or bucket[0] != epoch:
            return 0.0
        return bucket[1]

    def vulnerable_accumulated(self, epoch: int) -> Dict[Tuple[int, int], float]:
        """Nonzero ``epoch`` accumulators of rows that can actually flip.

        The canonical cross-store fingerprint: accumulators of rows with
        no vulnerable cells are subject to the fused-add ULP relaxation,
        so equivalence (dense == reference == scalar) is asserted over
        vulnerable rows only, and zero entries are dropped because the
        stores materialise them differently (a dict bucket exists only
        once touched; a dense slot always exists).
        """
        return {
            key: bucket[1]
            for key, bucket in self._acc.items()
            if bucket[0] == epoch and bucket[1] != 0.0
            and self.is_vulnerable(*key)
        }

    # ---------------------------------------------------- batched kernel
    def hammer_kernel(self, resolved, *, epoch: int, now_ns: int,
                      per_act_ns: int, window: int, origin: str,
                      trr_on, recent):
        """Accumulator core of :meth:`DramModule.hammer_batch`.

        ``resolved`` is a list of ``((bank, row), count)`` pairs with
        positive counts.  Returns ``(flips, acts, now_end, bank_totals,
        bank_last)`` and updates the deposit/flip counters; the module
        applies the flips, advances the clock and updates bank state.
        The speed comes from aggregating per-(bank, row) work:

        * victims that can actually flip — and every aggressor row, and
          every victim when a tracker rides the activation feed (its
          mid-batch refreshes interleave with deposits) — are replayed
          deposit-by-deposit, preserving flip ordering via per-cell
          threshold crossings;
        * the remaining victims are invulnerable bookkeeping-only rows:
          their accumulators take one fused ``weight * total_count`` add
          per aggressor at the end of the batch (the sanctioned
          last-ULP relaxation, see DESIGN.md), and pending sums are
          dropped at refresh-epoch rollovers exactly as the scalar
          path's lazy heal discards them.
        """
        trr_enabled = trr_on is not None
        aggressors = {key for key, _ in resolved}
        acc = self._acc
        now = now_ns
        boundary = (epoch + 1) * window

        # Per-aggressor plans.  Exact victims get their bucket resolved
        # up front (the first scalar deposit would create it with the
        # same epoch anyway); summed victims are flushed at the end.
        plans = {}
        for key in aggressors:
            bank, row = key
            exact = []   # (bucket, weight, cells, first_threshold, victim)
            summed = []  # ((bank, victim), weight)
            for victim, weight, cells in self.victim_plan(bank, row):
                if cells or (bank, victim) in aggressors or trr_enabled:
                    bucket = self._bucket(bank, victim, epoch)
                    first = cells[0].threshold if cells else 0.0
                    exact.append((bucket, weight, cells, first, victim))
                else:
                    summed.append(((bank, victim), weight))
            plans[key] = [None, exact, summed, 0, len(exact) + len(summed)]
        for key in aggressors:
            # Own-row heal target: only a bucket that exists by now can
            # ever be healed during the batch (heal never creates one).
            plans[key][0] = acc.get(key)

        flips: List[FlipEvent] = []
        deposits = 0
        acts = 0
        bank_totals: Dict[int, int] = {}
        bank_last: Dict[int, int] = {}
        recent_append = recent.append
        recent_extend = recent.extend
        infinity = float("inf")
        i = 0
        n_items = len(resolved)
        while i < n_items:
            item = resolved[i]
            key, count = item
            step = count * per_act_ns
            j = i + 1
            if not trr_enabled and step > 0:
                # Runs of identical items (the hammer-loop shape) replay
                # through tight per-victim accumulator loops below.
                while j < n_items and resolved[j] == item:
                    j += 1
            bank, row = key
            plan = plans[key]
            if j == i + 1:
                # Single item (or ChipTRR interleaving): per-item replay.
                if now >= boundary:
                    epoch = now // window
                    boundary = (epoch + 1) * window
                    for p in plans.values():
                        # The scalar path's lazy heal would discard these
                        # old-epoch sums at the victims' next touch.
                        p[3] = 0
                own = plan[0]
                if own is not None:
                    own[1] = 0.0
                for bucket, weight, cells, first, victim in plan[1]:
                    if bucket[0] != epoch:
                        bucket[0] = epoch
                        bucket[1] = 0.0
                    before = bucket[1]
                    after = before + weight * count
                    bucket[1] = after
                    if cells and after >= first:
                        for cell in cells:
                            if before < cell.threshold <= after:
                                flips.append(FlipEvent(
                                    bank=bank,
                                    row=victim,
                                    bit_offset=cell.bit_offset,
                                    from_value=cell.from_value,
                                    at_ns=now,
                                ))
                plan[3] += count
                deposits += plan[4]
                if trr_enabled:
                    trr_on(bank, row, count, epoch, now)
                recent_append((bank, row, origin))
                acts += count
                now += step
                bank_totals[bank] = bank_totals.get(bank, 0) + count
                bank_last[bank] = row
                i = j
                continue
            # Run fast path: r identical activations of one aggressor in
            # a row.  No other aggressor activates inside the run, so no
            # heal interleaves: each victim accumulator takes the same
            # sequential adds as the scalar loop (walked in a tight loop
            # per victim), the aggressor's own per-item heal collapses to
            # one idempotent heal, and cell-less victims — invulnerable
            # rows — take the sanctioned fused add.  Flips are re-sorted
            # into scalar (item-major, victim-minor) order by their
            # strictly increasing timestamps.
            remaining = j - i
            own = plan[0]
            if own is not None:
                own[1] = 0.0
            exact = plan[1]
            per_run_deposits = plan[4]
            while remaining:
                if now >= boundary:
                    epoch = now // window
                    boundary = (epoch + 1) * window
                    for p in plans.values():
                        p[3] = 0
                # Items whose pre-item rollover check stays quiet: those
                # with now + k*step < boundary.
                r = (boundary - now + step - 1) // step
                if r > remaining:
                    r = remaining
                run_flips = []
                for e_idx, (bucket, weight, cells, first, victim) in (
                        enumerate(exact)):
                    if bucket[0] != epoch:
                        bucket[0] = epoch
                        bucket[1] = 0.0
                    add = weight * count
                    value = bucket[1]
                    if not cells:
                        value += add * r
                        bucket[1] = value
                        continue
                    at = now
                    for _ in range(r):
                        before = value
                        value += add
                        if value >= first:
                            for cell in cells:
                                if before < cell.threshold <= value:
                                    run_flips.append((at, e_idx, FlipEvent(
                                        bank=bank,
                                        row=victim,
                                        bit_offset=cell.bit_offset,
                                        from_value=cell.from_value,
                                        at_ns=at,
                                    )))
                            # Cells at or below the accumulator can never
                            # re-fire this epoch; track the next one up.
                            first = infinity
                            for cell in cells:
                                if cell.threshold > value:
                                    first = cell.threshold
                                    break
                        at += step
                    bucket[1] = value
                if run_flips:
                    run_flips.sort(key=lambda rf: (rf[0], rf[1]))
                    flips.extend(rf[2] for rf in run_flips)
                plan[3] += count * r
                deposits += per_run_deposits * r
                recent_extend(repeat((bank, row, origin), r))
                acts += count * r
                now += r * step
                remaining -= r
            bank_totals[bank] = bank_totals.get(bank, 0) + count * (j - i)
            bank_last[bank] = row
            i = j

        # Fused accumulator flush for the invulnerable summed victims.
        for plan in plans.values():
            pending = plan[3]
            if not pending:
                continue
            for vkey, weight in plan[2]:
                bucket = acc.get(vkey)
                if bucket is None:
                    acc[vkey] = [epoch, weight * pending]
                elif bucket[0] != epoch:
                    bucket[0] = epoch
                    bucket[1] = weight * pending
                else:
                    bucket[1] += weight * pending

        self.total_deposits += deposits
        self.total_flip_events += len(flips)
        return flips, acts, now, bank_totals, bank_last

    def hammer_periodic(self, cycle, n_items: int, *, epoch: int,
                        now_ns: int, per_act_ns: int, window: int,
                        origin: str, recent):
        """The periodic stream expanded item by item through
        :meth:`hammer_kernel` — no closed form, so the dense store's
        periodic kernel is checked against the generic one."""
        p = len(cycle)
        resolved = [cycle[j % p] for j in range(n_items)]
        return self.hammer_kernel(
            resolved, epoch=epoch, now_ns=now_ns, per_act_ns=per_act_ns,
            window=window, origin=origin, trr_on=None, recent=recent)
