"""The Page Table Collector (Section IV-B).

Responsibilities, as in Figure 1:

* on load, scan every existing process and collect all L1PT pages into
  ``pt_rbtree`` / ``pt_row_rbtree``;
* hook ``__pte_alloc`` and ``__free_pages`` to track page-table births
  and deaths afterwards;
* maintain ``adj_rbtree``: a page is *adjacent* when (a) its own DRAM
  row lies within N rows of an L1PT row in the same bank — the
  *explicit*-attack surface [41], [12] — or (b) its L1PT page's row lies
  within N rows of another L1PT row — the *implicit*-attack surface
  PThammer [57] exploits (Section III-C).

The collector consumes the DRAM address mapping as offline domain
knowledge (the DRAMA workflow of :mod:`repro.dram.drama`); it never
modifies allocator behaviour (design principle DP2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..mmu import bits
from .profile import SoftTrrParams
from .structures import SoftTrrStructures


class PageTableCollector:
    """Collects L1PT pages and the pages adjacent to them."""

    def __init__(self, kernel, structures: SoftTrrStructures,
                 params: SoftTrrParams) -> None:
        self.kernel = kernel
        self.structs = structures
        self.params = params
        self.mapping = kernel.dram.mapping
        #: (bank, row) -> PPNs of L1PT pages with cells in that row.
        self._pts_at: Dict[Tuple[int, int], Set[int]] = {}
        #: pt ppn -> its (bank, row) list (cached; mapping is static).
        self._pt_rows: Dict[int, List[Tuple[int, int]]] = {}
        #: adjacency refcounts: adj ppn -> number of contributing PTs.
        self._adj_refs: Dict[int, int] = {}
        #: pt ppn -> adjacent ppns it contributed.
        self._pt_contrib: Dict[int, Set[int]] = {}
        #: row_pages / page_rows caches (the mapping is static hardware
        #: truth, so caching is exact).
        self._row_pages_cache: Dict[Tuple[int, int], List[int]] = {}
        self._page_rows_cache: Dict[int, List[Tuple[int, int]]] = {}
        #: called with a PPN when a page becomes adjacent (tracer wires
        #: this to its arming queue).
        self.on_new_adjacent: Optional[Callable[[int], None]] = None
        #: called with a PPN when a page stops being adjacent.
        self.on_adjacent_gone: Optional[Callable[[int], None]] = None
        # Fig. 5 statistics.
        self.ever_protected: Set[int] = set()
        self.ever_adjacent: Set[int] = set()
        # Trace hub, or None when tracing is off (repro.trace attaches).
        self.trace = None

    # ------------------------------------------------------------ queries
    def is_protected(self, ppn: int) -> bool:
        """Whether ``ppn`` is a collected L1PT page."""
        return ppn in self.structs.pt_rbtree

    def is_adjacent(self, ppn: int) -> bool:
        """Whether ``ppn`` is currently considered adjacent."""
        return ppn in self._adj_refs

    def protected_count(self) -> int:
        """Live protected L1PT pages (Fig. 5 series)."""
        return len(self.structs.pt_rbtree)

    def adjacent_count(self) -> int:
        """Live adjacent pages."""
        return len(self._adj_refs)

    def adjacent_ppns(self) -> List[int]:
        """Snapshot list of the currently adjacent PPNs."""
        return list(self._adj_refs)

    def page_rows_of(self, ppn: int) -> List[Tuple[int, int]]:
        """Cached (bank, row) list of a page."""
        rows = self._page_rows_cache.get(ppn)
        if rows is None:
            rows = self.mapping.page_rows(ppn)
            self._page_rows_cache[ppn] = rows
        return rows

    def _row_pages(self, bank: int, row: int) -> List[int]:
        key = (bank, row)
        pages = self._row_pages_cache.get(key)
        if pages is None:
            if 0 <= row < self.mapping.geometry.rows_per_bank:
                pages = self.mapping.row_pages(bank, row)
            else:
                pages = []
            self._row_pages_cache[key] = pages
        return pages

    def pointed_pages(self, pt_ppn: int) -> List[int]:
        """PPNs referenced by the valid entries of an L1PT page."""
        return [bits.pte_ppn(entry)
                for entry in self.kernel.mmu.pt_ops.raw_read_table(pt_ppn)
                if bits.is_present(entry)]

    def _user_accessible(self, ppn: int) -> bool:
        """Adjacent-page candidate filter: mapped into some user space."""
        return self.kernel.rmap.is_mapped(ppn)

    # --------------------------------------------------------- collection
    def initial_collect(self) -> int:
        """Scan every existing process (module-load path).

        Returns the number of protected pages collected.  The simulated
        scan cost (the paper measures ~28 ms for module load) is charged
        by the module facade, proportional to the walked pages.
        """
        span = (self.trace.span_begin("collector.initial_collect")
                if self.trace is not None else 0)
        count = 0
        for process in list(self.kernel.processes.values()):
            for l1_ppn in list(process.mm.pte_page_population.keys()):
                if self.on_pt_alloc(process, l1_ppn):
                    count += 1
            if 2 in self.params.protect_levels:
                for table_ppn, level in list(process.mm.table_levels.items()):
                    if level == 2 and self.on_pmd_alloc(process, table_ppn):
                        count += 1
        if self.trace is not None:
            self.trace.span_end("collector.initial_collect", span)
        return count

    def resync(self) -> int:
        """Re-walk live kernel state to repair lost-hook desync.

        Graceful-degradation path (``repro.faults``): a dropped
        ``__pte_alloc`` notify leaves a live L1PT uncollected, a dropped
        ``__free_pages`` notify leaves a dead one protected.  This pass
        re-collects every live table and prunes protected page-table
        entries whose table no longer exists.  Protected *objects*
        (level 0) are registered explicitly, not via hooks, so they are
        left alone.  Returns the number of repairs made.
        """
        span = (self.trace.span_begin("collector.resync")
                if self.trace is not None else 0)
        repairs = 0
        live_l1: Set[int] = set()
        live_l2: Set[int] = set()
        for process in list(self.kernel.processes.values()):
            for l1_ppn in list(process.mm.pte_page_population.keys()):
                live_l1.add(l1_ppn)
                if self.on_pt_alloc(process, l1_ppn):
                    repairs += 1
            if 2 in self.params.protect_levels:
                for table_ppn, level in list(process.mm.table_levels.items()):
                    if level == 2:
                        live_l2.add(table_ppn)
                        if self.on_pmd_alloc(process, table_ppn):
                            repairs += 1
        for ppn in list(self.structs.pt_rbtree.keys()):
            stored = self.structs.pt_rbtree.get(ppn)
            level = stored[1] if stored else 1
            dead = (level == 1 and ppn not in live_l1) or \
                   (level == 2 and ppn not in live_l2)
            if dead:
                self._remove_pt(ppn)
                repairs += 1
        if self.trace is not None:
            self.trace.span_end("collector.resync", span)
        return repairs

    def on_pt_alloc(self, process, pt_ppn: int) -> bool:
        """__pte_alloc hook: a (possibly new) L1PT page exists."""
        return self._collect_protected(pt_ppn, level=1)

    def on_pmd_alloc(self, process, pmd_ppn: int) -> bool:
        """__pmd_alloc hook (Section VII extension): an L2 page exists."""
        if 2 not in self.params.protect_levels:
            return False
        return self._collect_protected(pmd_ppn, level=2)

    def protect_object_page(self, ppn: int) -> bool:
        """Section VII user API: protect an arbitrary sensitive page
        (e.g. the binary code pages of a setuid process) with the same
        track-and-refresh machinery as page tables."""
        return self._collect_protected(ppn, level=0)

    def _collect_protected(self, ppn: int, *, level: int) -> bool:
        """Common collection path.  ``level``: 1/2 for page tables, 0
        for a trusted-user protected object (no entries to follow)."""
        if ppn in self.structs.pt_rbtree:
            return False
        rows = self.page_rows_of(ppn)
        self._pt_rows[ppn] = rows
        self.structs.pt_rbtree.insert(ppn, (rows, level))
        self.ever_protected.add(ppn)
        for bank, row in rows:
            self.structs.add_pt_location(row, bank)
            self._pts_at.setdefault((bank, row), set()).add(ppn)
        contrib: Set[int] = set()
        # (a) Explicit adjacency: user pages in rows physically near
        # this page's rows (translated through the in-DRAM remap).
        for bank, row in rows:
            for distance in range(1, self.params.max_distance + 1):
                for near_row in self.structs.neighbor_rows(row, distance):
                    for candidate in self._row_pages(bank, near_row):
                        if candidate == ppn:
                            continue
                        if self._user_accessible(candidate):
                            contrib.add(candidate)
        # (b) Implicit adjacency: if another protected page's row is
        # near, every user page reachable through either page table
        # becomes adjacent (the PThammer surface).  Plain protected
        # objects are not walked through, so they have no reachable set.
        near_pts: Set[int] = set()
        for bank, row in rows:
            for distance in range(1, self.params.max_distance + 1):
                for near_row in self.structs.neighbor_rows(row, distance):
                    near_pts |= self._pts_at.get((bank, near_row), set())
        near_pts.discard(ppn)
        if near_pts:
            contrib.update(self._reachable_user_pages(ppn))
            for other in near_pts:
                contrib.update(self._reachable_user_pages(other))
        self._register_adjacent(ppn, contrib)
        return True

    def _reachable_user_pages(self, ppn: int) -> List[int]:
        """User pages whose walks touch this protected page's row."""
        stored = self.structs.pt_rbtree.get(ppn)
        level = stored[1] if stored else 1
        if level == 1:
            return self.pointed_pages(ppn)
        if level == 2:
            out: List[int] = []
            for entry in self.kernel.mmu.pt_ops.raw_read_table(ppn):
                if not bits.is_present(entry):
                    continue
                if bits.is_huge(entry):
                    # The L2 entry IS the leaf: arming any page of the
                    # huge mapping arms this entry, so tracking the base
                    # page suffices.
                    out.append(bits.pte_ppn(entry))
                else:
                    out.extend(self.pointed_pages(bits.pte_ppn(entry)))
            return out
        return []  # level 0: protected objects have no entries

    def _register_adjacent(self, owner_pt: int, ppns: Set[int]) -> None:
        recorded = self._pt_contrib.setdefault(owner_pt, set())
        for ppn in ppns:
            if ppn in recorded:
                continue
            recorded.add(ppn)
            self._adj_refs[ppn] = self._adj_refs.get(ppn, 0) + 1
            if self._adj_refs[ppn] == 1:
                self.structs.adj_rbtree.insert(ppn, True)
                self.ever_adjacent.add(ppn)
                if self.on_new_adjacent is not None:
                    self.on_new_adjacent(ppn)

    def register_dynamic_adjacent(self, ppn: int) -> None:
        """A page that became adjacent after collection (tracer path).

        Owned by the synthetic contributor 'dynamic' (-1): it stays
        adjacent until the page itself is freed.
        """
        self._register_adjacent(-1, {ppn})

    def classify_new_page(self, ppn: int, l1_ppn: Optional[int]) -> bool:
        """Is a newly mapped user page adjacent?  (Section IV-C's check:
        "its PPN or its L1PT page's PPN (if exists) is adjacent to any
        PPN in pt_rbtree".)"""
        if len(self.structs.pt_row_rbtree) == 0:
            return False
        for bank, row in self.page_rows_of(ppn):
            if self.structs.has_pt_near(row, bank, self.params.max_distance):
                return True
        if l1_ppn is not None:
            for bank, row in self.page_rows_of(l1_ppn):
                if self.structs.has_pt_near(row, bank,
                                            self.params.max_distance):
                    return True
        return False

    # ------------------------------------------------------------- frees
    def on_free_pages(self, base_ppn: int, order: int, use) -> None:
        """__free_pages hook: protected-page death or adjacent-page
        death.  Protected objects are user frames, so membership (not
        the frame's use) decides the removal path."""
        for ppn in range(base_ppn, base_ppn + (1 << order)):
            if ppn in self.structs.pt_rbtree:
                self._remove_pt(ppn)
            elif ppn in self._adj_refs:
                self._remove_adjacent_page(ppn)

    def _remove_pt(self, pt_ppn: int) -> None:
        self.structs.pt_rbtree.delete(pt_ppn)
        rows = self._pt_rows.pop(pt_ppn, [])
        for bank, row in rows:
            self.structs.remove_pt_location(row, bank)
            members = self._pts_at.get((bank, row))
            if members is not None:
                members.discard(pt_ppn)
                if not members:
                    del self._pts_at[(bank, row)]
        for adj in self._pt_contrib.pop(pt_ppn, set()):
            refs = self._adj_refs.get(adj)
            if refs is None:
                continue
            if refs <= 1:
                del self._adj_refs[adj]
                self.structs.adj_rbtree.delete(adj)
                if self.on_adjacent_gone is not None:
                    self.on_adjacent_gone(adj)
            else:
                self._adj_refs[adj] = refs - 1

    def _remove_adjacent_page(self, ppn: int) -> None:
        self._adj_refs.pop(ppn, None)
        self.structs.adj_rbtree.delete(ppn)
        if self.on_adjacent_gone is not None:
            self.on_adjacent_gone(ppn)
