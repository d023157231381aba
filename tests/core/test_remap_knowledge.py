"""SoftTRR and in-DRAM remapping: right knowledge protects, wrong
knowledge refreshes the wrong rows.

Section III-A assumes "in-DRAM address remappings can be reverse-
engineered ... and they are assumed to be available".  These tests show
the assumption is load-bearing — and quantify a subtlety: the folded
remap displaces rows by at most one logical position, so a module that
wrongly assumes identity is still saved by the Δ±6 over-approximation
(the physical neighbour is within logical distance 2 ≤ 6).  At Δ±1,
where the assumed and true adjacency sets are disjoint, the wrong
assumption demonstrably loses: the aggressor page is never traced, the
victim row is never refreshed, and the hammer gets through.
"""

import pytest

from repro.clock import SimClock
from repro.config import CostModel, MachineSpec
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.dram.chiptrr import TrrParams
from repro.dram.disturbance import DisturbanceParams
from repro.dram.geometry import DramGeometry
from repro.dram.remap import FoldedRemap, IdentityRemap
from repro.dram.timing import DDR3_TIMINGS
from repro.kernel.kernel import Kernel
from repro.kernel.physmem import FrameUse
from repro.kernel.vma import PAGE
from repro.attacks.hammer import HammerKit
from repro.patterns import round_robin

#: Victim logical row 10 sits at physical 9; its physical neighbour 8
#: holds logical row 8 — logically TWO apart, so the Δ±1 adjacency sets
#: under the identity assumption and the true fold are disjoint.
VICTIM_LOGICAL = 10
AGGRESSOR_LOGICAL = 8


def folded_machine(seed=31) -> MachineSpec:
    return MachineSpec(
        name="folded-attack-machine", cpu_arch="t", cpu_model="t",
        dram_part="t", ddr_generation=3,
        geometry=DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192),
        timings=DDR3_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=2000.0, threshold_max_factor=1.5,
            row_vuln_probability=1.0, seed=seed),
        trr=TrrParams(enabled=False),
        cost=CostModel(),
        remap_kind="folded",
    )


def claim_row_frame(kernel, logical_row: int) -> int:
    ppn = kernel.dram.mapping.dram_to_phys(0, logical_row, 0) >> 12
    kernel.frame_policy.alloc_specific(ppn, FrameUse.USER)
    kernel.frame_table.record_alloc(ppn, FrameUse.USER, 0)
    return ppn


def hammer_scenario(max_distance: int, assume_remap=None):
    """Protect an object on the folded module, hammer the physically
    flanking row.  Returns (flips_in_victim_row, module)."""
    kernel = Kernel(folded_machine())
    params = SoftTrrParams(timer_inr_ns=50_000, max_distance=max_distance)
    module = SoftTrr(params, assume_remap=assume_remap)
    kernel.load_module("softtrr", module)
    # Victim: a protected object on the chosen frame.
    victim_ppn = claim_row_frame(kernel, VICTIM_LOGICAL)
    owner = kernel.create_process("owner")
    slot = kernel.mmap(owner, PAGE)
    kernel.map_page(owner, slot, victim_ppn)
    kernel.user_write(owner, slot, b"\xff" * PAGE)
    module.protect_user_object(owner, slot, PAGE)
    # Attacker maps the page in the physically flanking row.
    attacker = kernel.create_process("attacker")
    aggr_ppn = claim_row_frame(kernel, AGGRESSOR_LOGICAL)
    aggr_vaddr = kernel.mmap(attacker, PAGE)
    kernel.map_page(attacker, aggr_vaddr, aggr_ppn)
    kernel.clock.advance(100_000)
    kernel.dispatch_timers()
    kit = HammerKit(kernel, attacker)
    kit.run(round_robin(1, 4000), [aggr_vaddr])
    flips = [f for f in kernel.dram.flip_log
             if f.bank == 0 and f.row == VICTIM_LOGICAL]
    return flips, module


class TestScenarioGeometry:
    def test_chosen_rows_are_physically_adjacent(self):
        remap = FoldedRemap(64)
        assert AGGRESSOR_LOGICAL in remap.neighbors_at(VICTIM_LOGICAL, 1)
        # ... but logically two apart: disjoint Δ±1 sets under identity.
        assert abs(VICTIM_LOGICAL - AGGRESSOR_LOGICAL) == 2


class TestRemapKnowledge:
    def test_correct_remap_knowledge_protects_at_d1(self):
        flips, module = hammer_scenario(max_distance=1, assume_remap=None)
        assert not flips
        assert module.refresher.refreshes > 0
        assert module.tracer.captured_faults > 0

    def test_identity_assumption_fails_at_d1(self):
        wrong = IdentityRemap(64)
        flips, module = hammer_scenario(max_distance=1, assume_remap=wrong)
        assert flips, ("with a wrong remap assumption the hammer must "
                       "get through")
        # The module never even traced the aggressor: its assumed
        # adjacency set does not contain the physically flanking row.
        assert module.tracer.captured_faults == 0
        assert module.refresher.refreshes == 0

    def test_d6_overapproximation_masks_the_small_fold(self):
        """The Δ±6 default is robust to this remap even when assumed
        identity: the fold displaces rows by at most one position, so
        physical neighbours stay within logical distance 2 <= 6."""
        wrong = IdentityRemap(64)
        flips, module = hammer_scenario(max_distance=6, assume_remap=wrong)
        assert not flips
        assert module.refresher.refreshes > 0
