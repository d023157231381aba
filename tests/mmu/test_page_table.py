"""Tests for the raw, whole-table read of a page table."""

import dataclasses

import pytest

from repro.clock import SimClock
from repro.config import tiny_machine
from repro.mmu.cache import CpuCache
from repro.mmu.page_table import PageTableOps


@pytest.fixture(params=["linear", "interleaved"])
def pt_ops(request):
    spec = dataclasses.replace(tiny_machine(), mapping_kind=request.param)
    clock = SimClock()
    return PageTableOps(spec.build_dram(clock), CpuCache(clock))


class TestRawReadTable:
    def test_equals_512_entry_reads(self, pt_ops):
        table = 37
        for index in range(0, 512, 3):
            pt_ops.raw_write_entry(table, index,
                                   (index * 0x9E3779B97F4A7C15) % (1 << 64))
        entries = pt_ops.raw_read_table(table)
        assert len(entries) == 512
        assert list(entries) == [pt_ops.raw_read_entry(table, index)
                                 for index in range(512)]

    def test_unwritten_table_is_all_zero(self, pt_ops):
        assert pt_ops.raw_read_table(5) == (0,) * 512

    def test_costs_no_time_and_no_activation(self, pt_ops):
        dram = pt_ops.dram
        pt_ops.raw_write_entry(9, 1, 0x1234)
        before = (dram.clock.now_ns, dram.total_activations, dram.reads)
        pt_ops.raw_read_table(9)
        assert (dram.clock.now_ns, dram.total_activations, dram.reads) == before
