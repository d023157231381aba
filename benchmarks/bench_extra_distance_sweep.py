"""Extra experiment 5 — the tracking-distance design space (Section III-A).

SoftTRR's central design choice over prior work is its adjacency
distance: it tracks rows up to N=6 away ("the largest row distance that
has been observed so far", Kim et al. [26]), while previous defenses
assumed N=1. This sweep crosses attacker hammer distance d against
SoftTRR configurations Δ±k and verifies the boundary exactly:

    attack at distance d is blocked  ⇔  d ≤ k.

This is the generalisation of the ZebRAM criticism (Table row d=2, k=1)
and the justification for the paper's Δ±6 default.

At templating rates, deeper distances deposit geometrically less
disturbance (w(d) = decay^(d-1)), so the sweep uses more rounds for
larger d, mirroring real far-aggressor hammer times.

The benchmarked operation is one adjacency classification at Δ±6 (the
per-mapping cost that scales with the distance choice).
"""

from conftest import scale

from repro.analysis.tables import render_table
from repro.attacks.memory_spray import MemorySprayAttack
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.defenses import boot_kernel
from repro.errors import TemplatingError

BASE_ROUNDS = scale(4000, 8000)

#: (attacker distance, SoftTRR max_distance) grid.
DISTANCES = (1, 2, 3)
CONFIGS = (1, 2, 6)

TINY_PARAMS = dict(timer_inr_ns=50_000)


def run_cell(attack_distance: int, defense_distance: int) -> str:
    kernel = boot_kernel(tiny_machine())
    rounds = int(BASE_ROUNDS / (0.5 ** (attack_distance - 1)))
    attack = MemorySprayAttack(
        kernel, m=1, region_pages=256, template_rounds=rounds,
        pattern_override=f"distance_{attack_distance}")
    try:
        attack.setup()
    except TemplatingError:
        return "no-flips"
    kernel.load_module("softtrr", SoftTrr(SoftTrrParams(
        max_distance=defense_distance, **TINY_PARAMS)))
    kernel.clock.advance(100_000)
    kernel.dispatch_timers()
    hammer_ns = 2_500_000 * attack_distance
    outcome = attack.run(hammer_ns_per_victim=hammer_ns)
    return "blocked" if outcome.bit_flip_failed else "BYPASSED"


def test_distance_sweep(benchmark, announce):
    rows = []
    results = {}
    for attack_distance in DISTANCES:
        row = [f"hammer @ d={attack_distance}"]
        for defense_distance in CONFIGS:
            verdict = run_cell(attack_distance, defense_distance)
            results[(attack_distance, defense_distance)] = verdict
            row.append(verdict)
        rows.append(row)
    announce("extra_distance_sweep.txt", render_table(
        ["Attack \\ Defense"] + [f"SoftTRR D+-{k}" for k in CONFIGS],
        rows,
        title="Tracking distance vs hammer distance (blocked iff d <= k)"))
    for (d, k), verdict in results.items():
        if verdict == "no-flips":
            continue  # this DRAM/machine cannot flip at that distance
        expected = "blocked" if d <= k else "BYPASSED"
        assert verdict == expected, f"d={d}, k={k}: got {verdict}"
    # The headline cells must not degenerate:
    assert results[(1, 1)] == "blocked"
    assert results[(2, 1)] == "BYPASSED"    # the ZebRAM failure mode
    assert results[(2, 6)] == "blocked"     # SoftTRR's fix

    kernel = boot_kernel(tiny_machine())
    module = SoftTrr(SoftTrrParams(max_distance=6, **TINY_PARAMS))
    kernel.load_module("softtrr", module)
    proc = kernel.create_process("app")
    base = kernel.mmap(proc, 4096)
    kernel.user_write(proc, base, b"x")
    ppn = kernel.mapped_ppn_of(proc, base)

    def classify_once():
        module.collector.classify_new_page(ppn, None)

    benchmark(classify_once)
