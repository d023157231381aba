"""Cross-cutting property-based tests on core data structures.

These complement the per-module suites with model-based checks: each
simulated structure is driven by a random operation sequence alongside
a trivially correct Python model, and the two must agree at every step.
"""

import random
from collections import OrderedDict, deque

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.core.ringbuf import PteRef, PteRingBuffer
from repro.dram.address import linear_mapping, interleaved_mapping
from repro.dram.dense import DenseDisturbanceEngine
from repro.dram.disturbance import DisturbanceParams
from repro.dram.geometry import DramGeometry
from repro.kernel.buddy import BuddyAllocator
from repro.mmu.tlb import Tlb, TlbEntry

from .reference_disturbance import ReferenceDisturbanceEngine

#: Both accumulator stores: the shipped one and the test reference.
ENGINES = (DenseDisturbanceEngine, ReferenceDisturbanceEngine)


class TestRingBufferModel:
    @given(ops=st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_matches_fifo_model(self, ops):
        ring = PteRingBuffer(capacity=16)
        model = deque()
        counter = 0
        for push in ops:
            if push:
                ref = PteRef(pte_paddr=counter * 8, vaddr=counter << 12,
                             pid=1, ppn=counter)
                ring.push(ref)
                model.append(ref)
                counter += 1
            else:
                got = ring.pop()
                expected = model.popleft() if model else None
                assert got == expected
            assert len(ring) == len(model)

    @given(burst=st.integers(min_value=1, max_value=200))
    @settings(max_examples=30)
    def test_grow_preserves_order(self, burst):
        ring = PteRingBuffer(capacity=16)
        for i in range(burst):
            ring.push(PteRef(pte_paddr=i, vaddr=i, pid=1, ppn=i))
        assert [r.ppn for r in ring.drain()] == list(range(burst))


class TestMappingBijection:
    def test_linear_mapping_is_a_bijection_exhaustively(self):
        geo = DramGeometry(num_banks=4, rows_per_bank=8, row_bytes=2048)
        mapping = linear_mapping(geo)
        seen = set()
        for paddr in range(0, geo.capacity_bytes, 64):
            dram = mapping.phys_to_dram(paddr)
            key = (dram.bank, dram.row, dram.col)
            assert key not in seen
            seen.add(key)
            assert mapping.dram_to_phys(*key) == paddr
        assert len(seen) == geo.capacity_bytes // 64

    def test_interleaved_mapping_is_a_bijection_exhaustively(self):
        geo = DramGeometry(num_banks=4, rows_per_bank=8, row_bytes=2048)
        mapping = interleaved_mapping(geo)
        seen = set()
        for paddr in range(0, geo.capacity_bytes, 64):
            dram = mapping.phys_to_dram(paddr)
            key = (dram.bank, dram.row, dram.col)
            assert key not in seen
            seen.add(key)
            assert mapping.dram_to_phys(*key) == paddr


class TestDisturbanceProperties:
    @given(deposits=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 31),
                  st.floats(min_value=0.1, max_value=50.0)),
        min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_accumulation_is_additive(self, deposits):
        geo = DramGeometry(num_banks=4, rows_per_bank=32, row_bytes=2048)
        model = {}
        for bank, row, units in deposits:
            model[(bank, row)] = model.get((bank, row), 0.0) + units
        for engine_cls in ENGINES:
            engine = engine_cls(geo, DisturbanceParams(
                base_flip_threshold=1e9, row_vuln_probability=0.0, seed=1))
            for bank, row, units in deposits:
                engine.deposit(bank, row, units, epoch=0, now_ns=0)
            for (bank, row), total in model.items():
                assert abs(engine.accumulated(bank, row, 0) - total) < 1e-6

    @given(rows=st.lists(st.integers(0, 31), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_heal_is_idempotent_and_total(self, rows):
        geo = DramGeometry(num_banks=4, rows_per_bank=32, row_bytes=2048)
        for engine_cls in ENGINES:
            engine = engine_cls(geo, DisturbanceParams(
                base_flip_threshold=1e9, row_vuln_probability=0.0, seed=1))
            for row in rows:
                engine.deposit(0, row, 10.0, epoch=0, now_ns=0)
            for row in rows:
                engine.heal(0, row)
                engine.heal(0, row)
                assert engine.accumulated(0, row, 0) == 0.0


class TestTlbModel:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["fill", "lookup", "invlpg", "flush"]),
                  st.integers(0, 15)),
        min_size=1, max_size=120))
    @settings(max_examples=40)
    def test_matches_lru_model(self, ops):
        capacity = 4
        tlb = Tlb(SimClock(), capacity_4k=capacity, capacity_2m=2)
        model = OrderedDict()  # vpn -> ppn, LRU order
        for op, page in ops:
            vaddr = page << 12
            if op == "fill":
                entry = TlbEntry(ppn=page + 100, flags=0b110,
                                 leaf_level=1, pte_paddr=0)
                tlb.fill(vaddr, entry)
                model[page] = page + 100
                model.move_to_end(page)
                if len(model) > capacity:
                    model.popitem(last=False)
            elif op == "lookup":
                got = tlb.lookup(vaddr)
                if page in model:
                    assert got is not None and got.ppn == model[page]
                    model.move_to_end(page)
                else:
                    assert got is None
            elif op == "invlpg":
                tlb.invlpg(vaddr)
                model.pop(page, None)
            else:
                tlb.flush_all()
                model.clear()


class TestBuddyProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_alloc_specific_any_free_frame(self, seed):
        rng = random.Random(seed)
        buddy = BuddyAllocator(0, 128)
        # Randomly allocate some frames first.
        taken = set()
        for _ in range(rng.randrange(0, 40)):
            ppn = buddy.alloc_pages(0)
            taken.add(ppn)
        free = [p for p in range(128) if p not in taken]
        if not free:
            return
        target = rng.choice(free)
        assert buddy.alloc_specific(target) == target
        assert buddy.free_frames() == 128 - len(taken) - 1
        # And everything can be returned, coalescing back to one block.
        buddy.free_pages(target, 0)
        for ppn in taken:
            buddy.free_pages(ppn, 0)
        assert buddy.free_frames() == 128
        assert buddy.largest_free_order() == 7

    @given(orders=st.lists(st.integers(0, 4), min_size=1, max_size=25))
    @settings(max_examples=40)
    def test_blocks_are_always_aligned(self, orders):
        buddy = BuddyAllocator(64, 512)
        from repro.errors import OutOfMemoryError
        for order in orders:
            try:
                base = buddy.alloc_pages(order)
            except OutOfMemoryError:
                continue
            assert base % (1 << order) == 0
