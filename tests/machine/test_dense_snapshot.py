"""Snapshot/restore of the array-backed disturbance state.

The dense core keeps its accumulators in per-bank ``array('d')`` /
``array('q')`` pairs hanging off the engine; ``Machine.snapshot`` must
carry them (plain ``deepcopy`` does) so that a restore mid-epoch — with
partially-filled accumulators that have *not* yet crossed a threshold —
replays to bit-identical FlipEvents and ``telemetry.as_flat_dict()``,
with the batched and the scalar replay alike, and identically on the
dict-keyed reference store.
"""

import pytest

from repro.machine import Machine

from ..reference_disturbance import STORES, use_store


def _machine(store):
    machine = Machine(machine="tiny", sanitize=True,
                      strict_sanitizers=True)
    use_store(machine.dram, store)
    return machine


def _victim_and_aggressors(machine):
    """The cheapest vulnerable row and the paddrs of its two flanks."""
    dram = machine.dram
    best = None
    for row in range(2, dram.geometry.rows_per_bank - 2):
        cells = dram.engine.vulnerable_cells(0, row)
        if cells and (best is None or cells[0].threshold < best[1]):
            best = (row, cells[0].threshold)
    if best is None:
        pytest.skip("no vulnerable row on this machine seed")
    row = best[0]
    return row, (dram.mapping.dram_to_phys(0, row - 1, 0),
                 dram.mapping.dram_to_phys(0, row + 1, 0))


def _observables(machine):
    dram = machine.dram
    return (tuple(dram.flip_log), machine.clock.now_ns,
            dram.engine.vulnerable_accumulated(dram._epoch()),
            machine.telemetry.as_flat_dict())


def _charge(machine, paddrs, count):
    """Deposit ``count`` units per flank without the scalar/batch split."""
    for paddr in paddrs:
        machine.dram.hammer(paddr, count)


def _finish(machine, paddrs, batched):
    """The post-restore replay: enough hammering to cross thresholds."""
    items = [(paddrs[0], 1), (paddrs[1], 1)] * 1500
    if batched:
        machine.dram.hammer_batch(items, extra_ns=15)
    else:
        for paddr, count in items:
            machine.dram.hammer(paddr, count)
            machine.clock.advance(count * 15)
    return _observables(machine)


class TestDenseSnapshotRestore:
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("batched", [True, False],
                             ids=["batch", "scalar"])
    def test_mid_epoch_restore_replays_bit_identically(self, store,
                                                       batched):
        m = _machine(store)
        row, paddrs = _victim_and_aggressors(m)
        # Partially fill the victim's accumulator mid-epoch: below every
        # threshold, so the flips must come from the replay itself.
        _charge(m, paddrs, 300)
        partial = m.dram.engine.accumulated(0, row, m.dram._epoch())
        assert 0 < partial < m.dram.engine.min_threshold(0, row)
        snap = m.snapshot()
        first = _finish(m, paddrs, batched)
        assert first[0], "replay crossed no threshold — test is vacuous"
        m.restore(snap)
        assert m.dram.engine.accumulated(0, row, m.dram._epoch()) == partial
        second = _finish(m, paddrs, batched)
        assert first == second

    def test_batch_and_scalar_replays_agree_after_restore(self):
        results = {}
        for batched in (True, False):
            m = _machine("dense")
            _row, paddrs = _victim_and_aggressors(m)
            _charge(m, paddrs, 300)
            snap = m.snapshot()
            _finish(m, paddrs, batched)  # disturb before restoring
            m.restore(snap)
            results[batched] = _finish(m, paddrs, batched)
        assert results[True] == results[False]

    def test_cores_agree_through_snapshot_restore(self):
        results = {}
        for store in STORES:
            m = _machine(store)
            _row, paddrs = _victim_and_aggressors(m)
            _charge(m, paddrs, 300)
            snap = m.snapshot()
            _finish(m, paddrs, batched=True)
            m.restore(snap)
            results[store] = _finish(m, paddrs, batched=True)
        assert results["dense"] == results["dict"]

    def test_snapshot_isolates_the_arrays(self):
        # The restored engine's arrays must be copies, not views: more
        # hammering before restore must not leak into the snapshot.
        m = _machine("dense")
        row, paddrs = _victim_and_aggressors(m)
        _charge(m, paddrs, 100)
        partial = m.dram.engine.accumulated(0, row, m.dram._epoch())
        snap = m.snapshot()
        _charge(m, paddrs, 100)
        assert m.dram.engine.accumulated(0, row, m.dram._epoch()) > partial
        m.restore(snap)
        assert m.dram.engine.accumulated(0, row, m.dram._epoch()) == partial

    def test_restore_rewinds_epoch_tags(self):
        # Roll into the next refresh epoch after the snapshot: restore
        # must bring back both the values and the epoch tags (a stale
        # tag reads as zero in the new epoch).
        m = _machine("dense")
        row, paddrs = _victim_and_aggressors(m)
        _charge(m, paddrs, 300)
        epoch = m.dram._epoch()
        partial = m.dram.engine.accumulated(0, row, epoch)
        snap = m.snapshot()
        m.clock.advance(m.dram.timings.refresh_window_ns)
        _charge(m, paddrs, 1)
        assert m.dram._epoch() == epoch + 1
        assert m.dram.engine.accumulated(0, row, epoch + 1) < partial
        m.restore(snap)
        assert m.dram._epoch() == epoch
        assert m.dram.engine.accumulated(0, row, epoch) == partial
