"""Tests for the CPU cache model."""

import pytest

from repro.clock import SimClock
from repro.config import tiny_machine
from repro.errors import ConfigError
from repro.mmu.cache import CpuCache


def bed(capacity=64):
    spec = tiny_machine()
    clock = SimClock()
    dram = spec.build_dram(clock)
    cache = CpuCache(clock, capacity_lines=capacity, hit_ns=1, clflush_ns=12)
    return clock, dram, cache


class TestBasics:
    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            CpuCache(SimClock(), capacity_lines=0)

    def test_line_of(self):
        assert CpuCache.line_of(0x1234) == 0x1200
        assert CpuCache.line_of(0x1240) == 0x1240

    def test_miss_then_hit(self):
        clock, dram, cache = bed()
        cache.load(dram, 0x1000, 8)
        assert cache.misses == 1
        cache.load(dram, 0x1008, 8)  # same line
        assert cache.hits == 1

    def test_hit_is_fast_miss_is_slow(self):
        clock, dram, cache = bed()
        t0 = clock.now_ns
        cache.load(dram, 0x1000, 8)
        miss_cost = clock.now_ns - t0
        t1 = clock.now_ns
        cache.load(dram, 0x1000, 8)
        hit_cost = clock.now_ns - t1
        assert hit_cost < miss_cost
        assert hit_cost == 1

    def test_hits_do_not_reach_dram(self):
        clock, dram, cache = bed()
        cache.load(dram, 0x1000, 8)
        reads = dram.reads
        cache.load(dram, 0x1000, 8)
        assert dram.reads == reads


class TestDataPath:
    def test_load_returns_stored_data(self):
        clock, dram, cache = bed()
        dram.raw_write(0x2000, b"abcdef")
        assert cache.load(dram, 0x2000, 6) == b"abcdef"

    def test_store_then_load(self):
        clock, dram, cache = bed()
        cache.store(dram, 0x3000, b"hello")
        assert cache.load(dram, 0x3000, 5) == b"hello"

    def test_store_is_write_through(self):
        clock, dram, cache = bed()
        cache.store(dram, 0x3000, b"hi")
        assert dram.raw_read(0x3000, 2) == b"hi"

    def test_miss_returns_read_bytes_without_raw_read(self):
        clock, dram, cache = bed()
        payload = bytes(range(100, 200))
        dram.raw_write(0x2000 - 30, payload)
        raw_reads = []
        raw_read = dram.raw_read

        def counting_raw_read(paddr, size):
            raw_reads.append((paddr, size))
            return raw_read(paddr, size)

        dram.raw_read = counting_raw_read
        got = cache.load(dram, 0x2000 - 30, 100)
        assert cache.misses == 3 and cache.hits == 0
        assert raw_reads == []
        assert got == raw_read(0x2000 - 30, 100) == payload

    def test_load_spanning_lines(self):
        clock, dram, cache = bed()
        payload = bytes(range(130))
        dram.raw_write(0x1000 - 2, payload)
        assert cache.load(dram, 0x1000 - 2, 130) == payload


class TestFlush:
    def test_clflush_forces_next_miss(self):
        clock, dram, cache = bed()
        cache.load(dram, 0x1000, 8)
        cache.clflush(0x1000)
        assert not cache.contains(0x1000)
        cache.load(dram, 0x1000, 8)
        assert cache.misses == 2

    def test_clflush_costs_time(self):
        clock, dram, cache = bed()
        t0 = clock.now_ns
        cache.clflush(0x1000)
        assert clock.now_ns - t0 == 12

    def test_flush_range(self):
        clock, dram, cache = bed()
        cache.load(dram, 0x1000, 256)
        cache.flush_range(0x1000, 256)
        for off in range(0, 256, 64):
            assert not cache.contains(0x1000 + off)

    def test_flush_all(self):
        clock, dram, cache = bed()
        cache.load(dram, 0x1000, 8)
        cache.load(dram, 0x2000, 8)
        cache.flush_all()
        assert len(cache) == 0


class TestEviction:
    def test_lru_eviction(self):
        clock, dram, cache = bed(capacity=2)
        cache.load(dram, 0x1000, 8)
        cache.load(dram, 0x2000, 8)
        cache.load(dram, 0x1000, 8)  # refresh LRU position of 0x1000
        cache.load(dram, 0x3000, 8)  # evicts 0x2000
        assert cache.contains(0x1000)
        assert not cache.contains(0x2000)
        assert cache.contains(0x3000)
        assert cache.evictions == 1

    def test_evicted_line_reaches_dram_again(self):
        clock, dram, cache = bed(capacity=1)
        cache.load(dram, 0x1000, 8)
        cache.load(dram, 0x2000, 8)
        reads = dram.reads
        cache.load(dram, 0x1000, 8)
        assert dram.reads == reads + 1


class TestHammerRelevance:
    def test_cached_loads_never_activate_rows(self):
        # The reason hammering needs clflush: cache hits don't disturb.
        clock, dram, cache = bed()
        cache.load(dram, 0x1000, 8)
        bank, row = dram.mapping.row_of(0x1000)
        acc_before = {r: dram.row_accumulated(bank, r) for r in (row - 1, row + 1)}
        for _ in range(100):
            cache.load(dram, 0x1000, 8)
        for r, acc in acc_before.items():
            assert dram.row_accumulated(bank, r) == acc

    def test_flush_plus_load_activates_every_time(self):
        clock, dram, cache = bed()
        bank, row = dram.mapping.row_of(0x1000)
        for _ in range(10):
            cache.clflush(0x1000)
            cache.load(dram, 0x1000, 8)
        # 10 loads, each a DRAM activation of the row: neighbours got
        # 10 units at distance 1 (open-row policy does not dedupe since
        # the row buffer does stay open... the accumulator resets on
        # self-activation, so check the neighbour).
        assert dram.row_accumulated(bank, row + 1) >= 1
