"""End-to-end attack tests: each Section V attack corrupts L1PTs on a
vanilla kernel and is defeated by SoftTRR (the Table II result, scaled
to the tiny test machine)."""

import dataclasses

import pytest

from repro.attacks.cattmew import CattmewAttack
from repro.attacks.memory_spray import MemorySprayAttack
from repro.attacks.pthammer import PthammerAttack
from repro.attacks.placement import l1pt_of, place_l1pt_at, spray_l1pts
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.errors import DramError
from repro.kernel.kernel import Kernel
from repro.kernel.physmem import FrameUse
from repro.kernel.vma import PAGE
from repro.scenarios import run_scenario_guarded, scenario

#: SoftTRR parameters scaled to the tiny machine's weak DRAM: its cells
#: flip after ~2000 weighted ACTs (~160 us of hammering), so the
#: protection window must shrink accordingly — the same offline-profile
#: arithmetic as Section IV-E, applied to a weaker module.
TINY_PARAMS = SoftTrrParams(timer_inr_ns=50_000, count_limit=2)

M = 2
TEMPLATE_KW = dict(m=M, region_pages=224, template_rounds=3000)


def run_attack(attack_cls, *, softtrr: bool, hammer_ns: int):
    kernel = Kernel(tiny_machine())
    attack = attack_cls(kernel, **TEMPLATE_KW)
    attack.setup()
    if softtrr:
        kernel.load_module("softtrr", SoftTrr(TINY_PARAMS))
        # Let the first tracer tick arm the adjacent pages.
        kernel.clock.advance(2 * TINY_PARAMS.timer_inr_ns)
        kernel.dispatch_timers()
    outcome = attack.run(hammer_ns_per_victim=hammer_ns)
    return kernel, attack, outcome


class TestPlacement:
    def test_spray_creates_l1pts(self):
        kernel = Kernel(tiny_machine())
        proc = kernel.create_process("spray")
        slices = spray_l1pts(kernel, proc, 3)
        l1pts = {l1pt_of(kernel, proc, s) for s in slices}
        assert len(l1pts) == 3
        assert None not in l1pts

    def test_place_l1pt_moves_translation(self):
        kernel = Kernel(tiny_machine())
        proc = kernel.create_process("spray")
        [slice_vaddr] = spray_l1pts(kernel, proc, 1)
        kernel.user_write(proc, slice_vaddr, b"canary")
        target = kernel.buddy.alloc_pages(0)
        kernel.buddy.free_pages(target, 0)  # known-free frame
        old = place_l1pt_at(kernel, proc, slice_vaddr, target)
        assert l1pt_of(kernel, proc, slice_vaddr) == target
        assert old != target
        # Translation still works and data is intact.
        assert kernel.user_read(proc, slice_vaddr, 6) == b"canary"
        assert kernel.frame_table.use_of(target) is FrameUse.PAGE_TABLE

    def test_place_fires_softtrr_hooks(self):
        kernel = Kernel(tiny_machine())
        proc = kernel.create_process("spray")
        [slice_vaddr] = spray_l1pts(kernel, proc, 1)
        softtrr = SoftTrr(TINY_PARAMS)
        kernel.load_module("softtrr", softtrr)
        target = kernel.buddy.alloc_pages(0)
        kernel.buddy.free_pages(target, 0)
        old = place_l1pt_at(kernel, proc, slice_vaddr, target)
        assert softtrr.collector.is_protected(target)
        assert not softtrr.collector.is_protected(old)


class TestMemorySpray:
    def test_succeeds_without_defense(self):
        kernel, attack, outcome = run_attack(
            MemorySprayAttack, softtrr=False, hammer_ns=1_500_000)
        assert outcome.succeeded
        assert not outcome.bit_flip_failed
        assert outcome.m == M
        # The corrupted pages really are L1PT pages.
        for ppn in outcome.targeted_pt_pages:
            assert kernel.frame_table.use_of(ppn) is FrameUse.PAGE_TABLE

    def test_defeated_by_softtrr(self):
        kernel, attack, outcome = run_attack(
            MemorySprayAttack, softtrr=True, hammer_ns=1_500_000)
        assert outcome.bit_flip_failed
        assert outcome.softtrr_loaded
        softtrr = kernel.module("softtrr")
        assert softtrr.refresher.refreshes > 0
        assert softtrr.tracer.captured_faults > 0


class TestCattmew:
    def test_succeeds_without_defense(self):
        kernel, attack, outcome = run_attack(
            CattmewAttack, softtrr=False, hammer_ns=1_500_000)
        assert outcome.succeeded
        # The aggressors are SG-buffer (kernel) frames.
        for target in attack.targets:
            for vaddr in target.aggressor_vaddrs:
                ppn = kernel.mapped_ppn_of(attack.process, vaddr)
                assert kernel.frame_table.use_of(ppn) is FrameUse.SG_BUFFER

    def test_defeated_by_softtrr(self):
        kernel, attack, outcome = run_attack(
            CattmewAttack, softtrr=True, hammer_ns=1_500_000)
        assert outcome.bit_flip_failed
        assert kernel.module("softtrr").refresher.refreshes > 0


class TestPthammer:
    def test_succeeds_without_defense(self):
        kernel, attack, outcome = run_attack(
            PthammerAttack, softtrr=False, hammer_ns=3_000_000)
        assert outcome.succeeded
        # The hammered translations go through L1PTs placed on the
        # aggressor frames (implicit hammering).
        for target, vulnerable in zip(attack.targets, attack.vulnerable):
            for vaddr, aggr_ppn in zip(target.aggressor_vaddrs,
                                       vulnerable.aggressor_ppns):
                assert l1pt_of(kernel, attack.process, vaddr) == aggr_ppn

    def test_defeated_by_softtrr(self):
        kernel, attack, outcome = run_attack(
            PthammerAttack, softtrr=True, hammer_ns=3_000_000)
        assert outcome.bit_flip_failed
        assert kernel.module("softtrr").refresher.refreshes > 0


class _CrashingSpray(MemorySprayAttack):
    """Memory Spray whose hammer phase ends in an out-of-range access,
    optionally after corrupting the first target's L1PT page."""

    corrupt = True

    def _hammer_target(self, target, duration_ns):
        if self.corrupt:
            paddr = target.victim_ppn << 12
            byte = self.kernel.dram.raw_read(paddr, 1)[0]
            self.kernel.dram.raw_write(paddr, bytes([byte ^ 0x10]))
        raise DramError("access [0x600000, +8) outside capacity 0x400000")


class TestHammerCrash:
    def test_crash_after_pt_corruption_is_a_bypass(self):
        kernel = Kernel(tiny_machine())
        attack = _CrashingSpray(kernel, **TEMPLATE_KW)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=100_000)
        # Hammering stopped at the first target; its corruption counts.
        assert outcome.succeeded
        assert outcome.flipped_pt_pages == [attack.targets[0].victim_ppn]

    def test_crash_without_pt_corruption_propagates(self):
        kernel = Kernel(tiny_machine())
        attack = _CrashingSpray(kernel, **TEMPLATE_KW)
        attack.corrupt = False
        attack.setup()
        with pytest.raises(DramError):
            attack.run(hammer_ns_per_victim=100_000)

    def test_zebram_distance_two_seed_3_is_not_a_false_bypass(self):
        # At machine seed 3 the templated cell is PFN bit 22 of the
        # second aggressor's own PTE; placement charges it, so the first
        # hammer access walks to frame 0x600, past the 4 MiB module,
        # before any flip.  No targeted L1PT page changed, so the crash
        # must surface as an error rather than a bypass verdict.
        spec = scenario("baselines-zebram-memory_spray_d2")
        spec = dataclasses.replace(spec, params={**spec.params, "seed": 3})
        payload = run_scenario_guarded(spec).payload
        assert payload["error"]["type"] == "DramError"
        assert "outside capacity 0x400000" in payload["error"]["message"]
