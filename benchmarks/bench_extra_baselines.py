"""Extra experiment 2 — baseline defenses vs the attacks (Sections I/II).

Regenerates the comparison the paper argues from:

* CATT  — blocks Memory Spray, bypassed by CATTmew and PThammer;
* CTA   — blocks Memory Spray and CATTmew, bypassed by PThammer;
* ZebRAM — blocks distance-1 attacks, bypassed by distance-2 hammering;
* ANVIL — suppresses load-visible hammering, blind to PThammer;
* RIP-RH — isolates sensitive user processes only: page-table attacks
  sail through (the Section VII division of labour);
* ALIS — isolates DMA buffers: kills CATTmew structurally, nothing else;
* SoftTRR — blocks everything (Table II / tests).

Runs on the tiny machine (the relationships are structural, not
scale-dependent), with SoftTRR/ANVIL timing scaled to its weaker DRAM.

The benchmarked operation is the CATT placement veto — the cheapest
structural defense decision.
"""

import pytest
from conftest import scale

from repro.analysis.security import run_baseline_matrix
from repro.analysis.tables import render_matrix
from repro.config import tiny_machine
from repro.defenses import CattDefense, boot_kernel
from repro.errors import DefenseError
from repro.kernel.physmem import FrameUse

ROUNDS = scale(3000, 6000)

EXPECTED = {
    ("vanilla", "memory_spray"): "bypassed",
    ("vanilla", "cattmew"): "bypassed",
    ("vanilla", "pthammer_spray"): "bypassed",
    ("catt", "memory_spray"): "blocked",
    ("catt", "cattmew"): "bypassed",
    ("catt", "pthammer_spray"): "bypassed",
    ("cta", "memory_spray"): "blocked",
    ("cta", "cattmew"): "blocked",
    ("cta", "pthammer_spray"): "bypassed",
    ("zebram", "memory_spray"): "blocked",
    ("zebram", "memory_spray_d2"): "bypassed",
    ("anvil", "memory_spray"): "blocked",
    ("anvil", "pthammer_spray"): "bypassed",
    ("riprh", "memory_spray"): "bypassed",
    ("alis", "cattmew"): "blocked",
    ("alis", "memory_spray"): "bypassed",
    ("softtrr", "memory_spray"): "blocked",
    ("softtrr", "cattmew"): "blocked",
    ("softtrr", "pthammer_spray"): "blocked",
}


def test_baseline_matrix(benchmark, announce):
    cells = run_baseline_matrix(template_rounds=ROUNDS)
    announce("extra_baselines.txt", render_matrix(cells))
    got = {(c.defense, c.attack): c.verdict for c in cells}
    for key, expected in EXPECTED.items():
        assert got[key] == expected, f"{key}: got {got[key]}"

    kernel = boot_kernel(tiny_machine(), defense := CattDefense())
    user_frame = kernel.alloc_frame(FrameUse.USER)
    kernel.free_frame(user_frame)

    def placement_veto():
        with pytest.raises(DefenseError):
            defense.policy.alloc_specific(user_frame, FrameUse.PAGE_TABLE)

    benchmark(placement_veto)
