"""Differential suite: compiled-pattern execution ≡ scalar replay.

The compile pipeline fixes step boundaries; execution only chooses a
backend.  So a compiled plan run through :class:`AttackProgram` —
batched or scalar, dense or dict-keyed reference store — must be
bit-identical to a hand-written scalar replay of the same plan:
identical FlipEvents, counters, simulated nanoseconds and telemetry,
under strict sanitizers.  Plus: the DSL sided patterns reproduce the
legacy hand-written round-robin hammer loop's FlipEvent stream, and a
mid-pattern snapshot/restore replays the remaining steps identically.
"""

import pytest

from repro.machine import Machine, MachineConfig
from repro.patterns import AttackProgram, compile_pattern, sided_pattern
from repro.patterns.compile import CompiledPlan

from ..reference_disturbance import use_store

SEED = 11


def build(defense="vanilla", dense=True, defense_params=None):
    """A strict-sanitized tiny machine on the shipped dense store, or on
    the dict-keyed reference store when ``dense`` is false."""
    from repro.analysis.zoo import TINY_DEFENSE_PARAMS

    params = dict(TINY_DEFENSE_PARAMS.get(defense, {}))
    params.update(defense_params or {})
    machine = Machine(MachineConfig(
        machine="tiny", defense=defense, defense_params=params,
        sanitize=True, strict_sanitizers=True, seed=SEED))
    use_store(machine.dram, "dense" if dense else "dict")
    return machine


def bank0_victim(machine, margin):
    """(row, threshold) of the cheapest vulnerable bank-0 victim."""
    dram = machine.dram
    best = None
    for row in range(margin, dram.geometry.rows_per_bank - margin):
        cells = dram.engine.vulnerable_cells(0, row)
        if cells and (best is None or cells[0].threshold < best[1]):
            best = (row, cells[0].threshold)
    assert best is not None, "tiny seed must expose vulnerable rows"
    return best


def double_sided_plan(machine, rounds=40, gap_ns=120):
    row, threshold = bank0_victim(machine, margin=1)
    acts = max(1, int(1.5 * threshold) // rounds)
    plan = compile_pattern(
        sided_pattern(2, gap_ns=gap_ns),
        {"victim": row, "rounds": rounds, "acts": acts})
    return plan


def fingerprint(machine):
    dram = machine.dram
    return {
        "flip_log": tuple(dram.flip_log),
        "now_ns": machine.clock.now_ns,
        "total_activations": dram.total_activations,
        "telemetry": machine.telemetry.as_flat_dict(),
    }


def scalar_replay(kernel, plan):
    """A literal re-execution of the plan's documented semantics."""
    dram = kernel.dram
    for step in plan.steps:
        for bank, row, count in step.acts:
            dram.hammer(dram.mapping.dram_to_phys(bank, row, 0), count)
            kernel.clock.advance(count * plan.act_ns)
        if step.wait_ns:
            kernel.clock.advance(step.wait_ns)
        kernel.dispatch_timers()


@pytest.mark.parametrize("dense", [False, True])
def test_compiled_equals_handwritten_scalar(dense):
    reference = build(dense=dense)
    plan = double_sided_plan(reference)
    scalar_replay(reference.kernel, plan)
    want = fingerprint(reference)
    assert want["flip_log"], "the reference replay must actually flip"
    for use_batch in (False, True):
        machine = build(dense=dense)
        AttackProgram(plan, mode="rows",
                      use_batch=use_batch).run(machine.kernel)
        assert fingerprint(machine) == want, f"use_batch={use_batch}"


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("defense", ["chiptrr", "misra_gries"])
def test_batched_equals_scalar_under_feed_trackers(defense, dense):
    """Tracker state (and its refresh actuations) must not depend on
    the execution backend either."""
    prints = {}
    for use_batch in (False, True):
        machine = build(defense=defense, dense=dense)
        plan = double_sided_plan(machine)
        AttackProgram(plan, mode="rows",
                      use_batch=use_batch).run(machine.kernel)
        prints[use_batch] = fingerprint(machine)
    assert prints[False] == prints[True]


@pytest.mark.parametrize("pattern",
                         ["one_sided", "double_sided", "many_sided"],
                         ids=["1", "2", "8"])
@pytest.mark.parametrize("defense",
                         ["vanilla", "chiptrr", "misra_gries", "softtrr"])
def test_dsl_double_sided_matches_legacy_attack_stream(defense, pattern):
    """Acceptance bar: the DSL-authored sided patterns every zoo and
    window cell hammers with reproduce the legacy hand-written
    round-robin loop bit-identically on the same machine seed: FlipEvent
    stream, activations, refreshes and simulated nanoseconds."""
    from repro.analysis.zoo import (
        _PATTERN_MARGIN,
        _PATTERN_OFFSETS,
        _PATTERN_ROUNDS,
        hammer_sided,
    )

    # The oracle: the loop the zoo and the window runner used to run.
    legacy = build(defense=defense)
    bank, victim, threshold = legacy.dram.engine.cheapest_victim(
        _PATTERN_MARGIN)
    per_round = max(1, int(1.5 * threshold) // _PATTERN_ROUNDS)
    dram = legacy.dram
    aggressors = [dram.mapping.dram_to_phys(bank, victim + off, 0)
                  for off in _PATTERN_OFFSETS[pattern]]
    for _ in range(_PATTERN_ROUNDS):
        for paddr in aggressors:
            dram.hammer(paddr, per_round)

    authored = build(defense=defense)
    fields, _outcome = hammer_sided(authored, pattern)

    assert fields["victim"] == [bank, victim]
    assert fields["acts_per_aggressor"] == per_round * _PATTERN_ROUNDS
    assert tuple(legacy.dram.flip_log) == tuple(authored.dram.flip_log)
    assert fields["flip_events"] == len(legacy.dram.flip_log)
    assert (legacy.dram.total_activations
            == authored.dram.total_activations)
    assert (legacy.dram.actuator.refreshes
            == authored.dram.actuator.refreshes)
    assert legacy.clock.now_ns == authored.clock.now_ns
    if defense == "vanilla":
        assert legacy.dram.flip_log, "the vanilla stream must flip"


@pytest.mark.parametrize("dense", [False, True])
def test_snapshot_restore_mid_pattern_replays_identically(dense):
    machine = build(dense=dense)
    plan = double_sided_plan(machine)
    half = len(plan.steps) // 2
    first = CompiledPlan(plan.name, plan.steps[:half], plan.act_ns)
    second = CompiledPlan(plan.name, plan.steps[half:], plan.act_ns)

    AttackProgram(first, mode="rows").run(machine.kernel)
    snap = machine.snapshot()
    AttackProgram(second, mode="rows").run(machine.kernel)
    original = fingerprint(machine)

    machine.restore(snap)
    AttackProgram(second, mode="rows").run(machine.kernel)
    assert fingerprint(machine) == original
    assert original["flip_log"], "the replayed half must contain flips"
