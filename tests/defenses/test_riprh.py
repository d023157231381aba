"""Tests for RIP-RH: per-process isolation covers the setuid opcode
attack and nothing else (Section VII's division of labour)."""

import pytest

from repro.attacks.hammer import HammerKit
from repro.config import tiny_machine
from repro.defenses import boot_kernel
from repro.defenses.riprh import RipRhDefense
from repro.kernel.physmem import FrameUse
from repro.kernel.vma import PAGE


def booted():
    defense = RipRhDefense()
    kernel = boot_kernel(tiny_machine(), defense)
    return kernel, defense


class TestRouting:
    def test_sensitive_process_frames_isolated(self):
        kernel, defense = booted()
        setuid = kernel.create_process("setuid")
        defense.mark_sensitive(setuid)
        other = kernel.create_process("other")

        sbase = kernel.mmap(setuid, 2 * PAGE)
        kernel.switch_to(setuid)
        kernel.user_write(setuid, sbase, b"s")
        obase = kernel.mmap(other, 2 * PAGE)
        kernel.user_write(other, obase, b"o")

        s_ppn = kernel.mapped_ppn_of(setuid, sbase)
        o_ppn = kernel.mapped_ppn_of(other, obase)
        assert defense.policy.region_of(s_ppn) == "sensitive"
        assert defense.policy.region_of(o_ppn) == "common"

    def test_page_tables_stay_in_common_region(self):
        kernel, defense = booted()
        setuid = kernel.create_process("setuid")
        defense.mark_sensitive(setuid)
        base = kernel.mmap(setuid, PAGE)
        kernel.switch_to(setuid)
        kernel.user_write(setuid, base, b"x")
        for l1 in kernel.l1pt_frames():
            assert defense.policy.region_of(l1) == "common"

    def test_guard_exceeds_blast_radius(self):
        kernel, defense = booted()
        setuid = kernel.create_process("setuid")
        defense.mark_sensitive(setuid)
        attacker = kernel.create_process("attacker")
        sbase = kernel.mmap(setuid, 2 * PAGE)
        kernel.switch_to(setuid)
        kernel.user_write(setuid, sbase, b"s")
        s_rows = {row for _, row in kernel.dram.mapping.page_rows(
            kernel.mapped_ppn_of(setuid, sbase))}
        abase = kernel.mmap(attacker, 32 * PAGE)
        kernel.mlock(attacker, abase, 32 * PAGE)
        for i in range(32):
            ppn = kernel.mapped_ppn_of(attacker, abase + i * PAGE)
            for _, row in kernel.dram.mapping.page_rows(ppn):
                for s_row in s_rows:
                    assert abs(row - s_row) > 6


class TestCoverage:
    def test_blocks_opcode_hammering_structurally(self):
        """No attacker frame can neighbour the sensitive process's
        code, so the root-privilege-escalation attack has no aggressors."""
        kernel, defense = booted()
        setuid = kernel.create_process("setuid")
        defense.mark_sensitive(setuid)
        code = kernel.mmap(setuid, PAGE, name="text")
        kernel.switch_to(setuid)
        kernel.user_write(setuid, code, b"\x90" * PAGE)
        code_ppn = kernel.mapped_ppn_of(setuid, code)
        bank, row = kernel.dram.mapping.page_rows(code_ppn)[0]
        attacker = kernel.create_process("attacker")
        span = kernel.mmap(attacker, 128 * PAGE)
        kernel.mlock(attacker, span, 128 * PAGE)
        kit = HammerKit(kernel, attacker)
        flanking = [
            span + i * PAGE for i in range(128)
            if any(b == bank and abs(r - row) <= 6
                   for b, r in kernel.dram.mapping.page_rows(
                       kernel.mapped_ppn_of(attacker, span + i * PAGE)))
        ]
        assert flanking == [], "isolation must leave no flanking frames"

    def test_does_not_stop_page_table_attacks(self):
        """RIP-RH is a user-data defense: sprayed L1PTs still neighbour
        attacker memory in the common region (why SoftTRR is needed)."""
        from repro.attacks.memory_spray import MemorySprayAttack
        kernel, defense = booted()
        attack = MemorySprayAttack(kernel, m=1, region_pages=192,
                                   template_rounds=3000)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=1_500_000)
        assert outcome.succeeded
