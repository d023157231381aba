"""Per-layer spans recorded from outside the program.

The traced run wraps each layer's public functions on their classes (or
defining modules) before any machine is built, so every call made
through attribute lookup -- ``self.mapping.phys_to_dram(...)`` -- opens
a span.  A span's *self time* is its duration minus the time its child
spans cover.  Nothing under ``src/`` is edited; :func:`install` patches
attributes in memory and the returned handle puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

OVERHEAD, ATTACK, FUZZ = "overhead-mix", "attack-mix", "fuzz-fleet"


class Target(NamedTuple):
    """One wrapped public function and the workloads it should dominate."""

    module: str       # defining module, e.g. "repro.dram.address"
    qualname: str     # "Class.method" or a module-level "function"
    heavy_on: Tuple[str, ...]

    @property
    def name(self) -> str:
        """Metric prefix: the module without ``repro.``, then the qualname."""
        return f"{self.module[len('repro.'):]}.{self.qualname}"


#: Every wrapped function, grouped by layer.  ``heavy_on`` names the
#: workloads on which the function must be called at least once; a zero
#: there is reported as ``missing`` (a bypassed wrapper or a renamed
#: function), never as a silent 0.  ``hammer_periodic`` and
#: ``Mmu.access_run`` are reached by none of the workloads today (see
#: README.md); they stay listed so a change that starts using them shows.
TARGETS: Tuple[Target, ...] = (
    # dram.address
    Target("repro.dram.address", "AddressMapping.phys_to_dram", (OVERHEAD, ATTACK)),
    Target("repro.dram.address", "AddressMapping.dram_to_phys", (ATTACK, OVERHEAD)),
    # dram.module
    Target("repro.dram.module", "DramModule.raw_write", (OVERHEAD,)),
    Target("repro.dram.module", "DramModule.raw_read", (OVERHEAD, ATTACK)),
    Target("repro.dram.module", "DramModule.hammer_batch", (ATTACK, FUZZ)),
    Target("repro.dram.module", "DramModule.hammer", (ATTACK,)),
    # dram.disturbance / dram.dense
    Target("repro.dram.disturbance", "DisturbanceCore.on_activate", (ATTACK,)),
    Target("repro.dram.disturbance", "DisturbanceCore.vulnerable_cells", (ATTACK, FUZZ)),
    Target("repro.dram.dense", "DenseDisturbanceEngine.deposit", (ATTACK,)),
    Target("repro.dram.dense", "DenseDisturbanceEngine.hammer_kernel", (FUZZ, ATTACK)),
    Target("repro.dram.dense", "DenseDisturbanceEngine.hammer_periodic", ()),
    # dram.feed + defenses.trackers
    Target("repro.dram.feed", "ActivationFeed.publish", (FUZZ,)),
    Target("repro.dram.chiptrr", "ChipTrr.observe", (FUZZ,)),
    Target("repro.defenses.trackers.para", "ParaTracker.observe", (FUZZ,)),
    Target("repro.defenses.trackers.misra_gries", "MisraGriesTracker.observe", (FUZZ,)),
    Target("repro.defenses.trackers.ptmp", "PtmpTracker.observe", (FUZZ,)),
    Target("repro.defenses.trackers.dapper", "DapperTracker.observe", (FUZZ,)),
    # mmu
    Target("repro.mmu.mmu", "Mmu.translate", (OVERHEAD, ATTACK)),
    Target("repro.mmu.mmu", "Mmu.load", (OVERHEAD, ATTACK)),
    Target("repro.mmu.mmu", "Mmu.store", (OVERHEAD, ATTACK)),
    Target("repro.mmu.mmu", "Mmu.access_run", ()),
    Target("repro.mmu.walker", "Walker.walk", (OVERHEAD, ATTACK)),
    Target("repro.mmu.tlb", "Tlb.lookup", (OVERHEAD, ATTACK)),
    Target("repro.mmu.cache", "CpuCache.load", (OVERHEAD, ATTACK)),
    Target("repro.mmu.cache", "CpuCache.store", (OVERHEAD, ATTACK)),
    # kernel
    Target("repro.kernel.kernel", "Kernel.handle_page_fault", (OVERHEAD, ATTACK)),
    Target("repro.kernel.kernel", "Kernel.user_read", (OVERHEAD, ATTACK)),
    Target("repro.kernel.kernel", "Kernel.user_write", (OVERHEAD, ATTACK)),
    Target("repro.kernel.kernel", "Kernel.user_access_run", (OVERHEAD,)),
    Target("repro.kernel.kernel", "Kernel.mmap", (OVERHEAD, ATTACK)),
    Target("repro.kernel.kernel", "Kernel.munmap", (OVERHEAD,)),
    Target("repro.kernel.kernel", "Kernel.fork", (OVERHEAD,)),
    Target("repro.kernel.kernel", "Kernel.exit_process", (OVERHEAD,)),
    Target("repro.kernel.kernel", "Kernel.dispatch_timers", (OVERHEAD, ATTACK)),
    # core (SoftTRR)
    Target("repro.core.tracer", "AdjacentPageTracer.on_page_fault", (OVERHEAD, ATTACK)),
    Target("repro.core.tracer", "AdjacentPageTracer.tick", (OVERHEAD, ATTACK)),
    Target("repro.core.refresher", "RowRefresher.refresh", (OVERHEAD, ATTACK)),
    Target("repro.core.refresher", "RowRefresher.on_adjacent_access", (OVERHEAD, ATTACK)),
    Target("repro.core.collector", "PageTableCollector.initial_collect", (OVERHEAD, ATTACK)),
    Target("repro.core.collector", "PageTableCollector.on_pt_alloc", (OVERHEAD, ATTACK)),
    Target("repro.core.collector", "PageTableCollector.on_free_pages", (OVERHEAD,)),
    # attacks
    Target("repro.attacks.templating", "FlipTemplater.find_vulnerable_pages", (ATTACK,)),
    Target("repro.attacks.templating", "FlipTemplater.claim_region", (ATTACK,)),
    # patterns
    Target("repro.patterns.parser", "parse_pattern", (FUZZ,)),
    Target("repro.patterns.compile", "compile_pattern", (FUZZ, ATTACK)),
    Target("repro.patterns.program", "AttackProgram.run", (FUZZ, ATTACK)),
    # rng
    Target("repro.rng", "derive_rng", (FUZZ, OVERHEAD, ATTACK)),
    # machine
    Target("repro.machine.machine", "Machine._assemble", (FUZZ, OVERHEAD, ATTACK)),
    # fleet
    Target("repro.fleet.checkpoint", "ResultDir.append_record", (FUZZ,)),
)


def _len_of_first_arg(args) -> Optional[int]:
    items = args[1] if len(args) > 1 else None
    return len(items) if hasattr(items, "__len__") else None


#: Functions whose first argument's length is summed as work items.
ITEM_COUNTERS: Dict[str, Callable] = {
    "dram.module.DramModule.hammer_batch": _len_of_first_arg,
}


class SpanRecorder:
    """Accumulates calls, self time and work items per span name.

    Spans nest through a stack of child-time accumulators: when a span
    closes, its full duration is added to its parent's child time, and
    its own self time is its duration minus its children's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.items: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable,
             count_items: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        clock = self.clock
        stack = self._stack
        calls, self_s, items = self.calls, self.self_s, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_items is not None:
                n = count_items(args)
                if n is not None:
                    items[name] += n
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced


class Installed:
    """Handle on installed wrappers; :meth:`remove` restores originals."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every target in place; call ``.remove()`` on the result."""
    handle = Installed()
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                handle.patch(owner, attr, recorder.wrap(
                    target.name, original, ITEM_COUNTERS.get(target.name)))
                continue
            # A module-level function: patch the defining module and
            # every loaded repro module that imported it by name.
            original = getattr(module, attr)
            wrapped_fn = recorder.wrap(target.name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    handle.patch(mod, attr, wrapped_fn)
    except BaseException:
        handle.remove()
        raise
    return handle
