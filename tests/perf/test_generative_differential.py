"""Four-way generative differential: dense == dict == scalar, bit for bit.

260 seeded random hammer programs (see :mod:`tests.perf.generative`)
replayed under strict sanitizers in all four (store, replay) modes —
the shipped dense store and the dict-keyed reference store, each
scalar and batched — plus a band with the SoftTRR defense
and an active FaultPlan, plus unit coverage for the shrinker itself.
"""

import pytest

from repro.defenses import DEFENSES
from repro.faults import FaultPlan, FaultSpec

from .generative import (
    MODES,
    check_seed,
    generate_program,
    mismatch,
    run_program,
    shrink,
)

#: 220 plain seeds + 40 chaos seeds = 260 programs per full run.
PLAIN_SEEDS = range(220)
CHAOS_SEEDS = range(1000, 1040)
CHUNK = 10

#: Every registry defense rides a smaller band; the feed trackers also
#: get a fault-plan band (their mitigation path shares the refresher's
#: failure surface through the actuator).
ALL_DEFENSES = sorted(DEFENSES)
TRACKER_DEFENSES = ("chiptrr", "para", "misra_gries", "ptmp", "dapper")
DEFENSE_SEEDS = range(12)
TRACKER_CHAOS_SEEDS = range(1000, 1012)

CHAOS_PLAN = FaultPlan(specs=(
    FaultSpec(site="timers", mode="drop", probability=0.3),
    FaultSpec(site="refresher", mode="fail_refresh", probability=0.5),
    FaultSpec(site="hooks", mode="drop", probability=0.1),
), seed=41)


def _chunks(seeds):
    seeds = list(seeds)
    return [seeds[i:i + CHUNK] for i in range(0, len(seeds), CHUNK)]


class TestGenerativeDifferential:
    @pytest.mark.parametrize("seeds", _chunks(PLAIN_SEEDS),
                             ids=lambda c: f"seeds{c[0]}-{c[-1]}")
    def test_four_way_equivalence(self, seeds):
        for seed in seeds:
            check_seed(seed)

    @pytest.mark.parametrize("seeds", _chunks(CHAOS_SEEDS),
                             ids=lambda c: f"seeds{c[0]}-{c[-1]}")
    def test_four_way_equivalence_under_faults(self, seeds):
        for seed in seeds:
            check_seed(seed, defense="softtrr", fault_plan=CHAOS_PLAN)

    @pytest.mark.parametrize("defense", ALL_DEFENSES)
    def test_four_way_equivalence_per_defense(self, defense):
        for seed in DEFENSE_SEEDS:
            check_seed(seed, defense=defense)

    @pytest.mark.parametrize("defense", TRACKER_DEFENSES)
    def test_four_way_equivalence_trackers_under_faults(self, defense):
        for seed in TRACKER_CHAOS_SEEDS:
            check_seed(seed, defense=defense, fault_plan=CHAOS_PLAN)

    @pytest.mark.parametrize("defense", TRACKER_DEFENSES)
    def test_tracker_band_actually_actuates(self, defense):
        # At least one program per tracker must trigger refreshes, or
        # the per-defense equivalence band would be vacuous for the
        # policy under test.
        for seed in DEFENSE_SEEDS:
            result = run_program(generate_program(seed), store="dense",
                                 batched=True, defense=defense)
            if result["telemetry"]["actuator.refreshes"] > 0:
                return
        pytest.fail(f"no seed made the {defense} tracker actuate")

    def test_chaos_band_actually_injects_faults(self):
        # At least one chaos program must draw injected faults, or the
        # fault-plan leg of the claim would be vacuous.
        for seed in CHAOS_SEEDS:
            result = run_program(generate_program(seed), store="dense",
                                 batched=True, defense="softtrr",
                                 fault_plan=CHAOS_PLAN)
            injected = sum(
                value for key, value in result["telemetry"].items()
                if key.startswith("faults.") and key.endswith(".injected"))
            if injected > 0:
                return
        pytest.fail("no chaos seed injected any fault")

    def test_programs_are_deterministic_per_seed(self):
        assert generate_program(3) == generate_program(3)
        assert generate_program(3) != generate_program(4)

    def test_programs_cover_the_op_space(self):
        kinds = set()
        shapes = set()
        for seed in PLAIN_SEEDS:
            for op in generate_program(seed):
                kinds.add(op[0])
                if op[0] == "hammer_batch":
                    items = op[1]
                    if len(items) >= 8 and items[:4] * 2 == items[:8]:
                        shapes.add("periodic")
                    else:
                        shapes.add("irregular")
        assert {"hammer_batch", "hammer", "advance", "refresh", "tick",
                "snapshot", "restore"} <= kinds
        assert shapes == {"periodic", "irregular"}

    def test_modes_really_differ_in_mechanism(self):
        # Same program, four distinct engine/replay combinations — the
        # dict modes must actually run on the reference store and the
        # dense modes on the shipped DenseDisturbanceEngine.
        from repro.dram import DenseDisturbanceEngine
        from repro.machine import Machine

        from ..reference_disturbance import (
            ReferenceDisturbanceEngine,
            use_store,
        )

        engines = {}
        for _label, store, _batched in MODES:
            machine = Machine(machine="tiny")
            use_store(machine.dram, store)
            engines[store] = type(machine.dram.engine)
        assert engines == {"dense": DenseDisturbanceEngine,
                           "dict": ReferenceDisturbanceEngine}
        assert len(MODES) == len(set(MODES)) == 4


class TestShrinker:
    def test_shrinks_to_single_culprit_op(self):
        program = tuple(("hammer", 8192 * i, 1) for i in range(50))
        culprit = ("refresh", 0, 7)
        program = program[:20] + (culprit,) + program[20:]
        minimal = shrink(program, lambda p: culprit in p)
        assert minimal == (culprit,)

    def test_shrinks_batch_items(self):
        items = tuple((8192 * (i % 7), 1) for i in range(64))
        program = (("hammer_batch", items, 0), ("tick",))

        def failing(p):
            return any(op[0] == "hammer_batch"
                       and (8192 * 3, 1) in op[1] for op in p)

        minimal = shrink(program, failing)
        assert len(minimal) == 1
        assert len(minimal[0][1]) <= 2
        assert failing(minimal)

    def test_never_returns_a_passing_program(self):
        program = generate_program(0)
        # A predicate failing on everything shrinks to one op.
        minimal = shrink(program, lambda p: True)
        assert len(minimal) == 1

    def test_mismatch_is_clean_on_good_seeds(self):
        assert not mismatch(generate_program(0))
