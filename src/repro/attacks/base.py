"""Shared attack machinery for the Section V evaluation.

Each attack follows the paper's optimised deterministic recipe:

1. **template** — find ``m`` vulnerable pages with the machine's hammer
   pattern;
2. **place** — spray L1PT pages and, with kernel assistance, relocate
   them onto the vulnerable frames (and, per attack, arrange the
   aggressor memory: plain user pages, SG-buffer pages, or further L1PT
   pages);
3. **hammer** — drive the aggressors and check the victim L1PT pages'
   integrity, exactly as the paper does ("we ... observe no single bit
   flip in those m pages of L1PTs by checking their integrity").

The experiment runner calls ``setup()`` first, then (optionally) loads
SoftTRR or a baseline defense, then ``run()`` — matching the paper's
"enable SoftTRR ... re-start the optimized attack" order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AttackError, DramError
from ..kernel.vma import PAGE
from .hammer import HammerKit
from .templating import FlipTemplater, VulnerablePage


def _pt_view(page_bytes: bytes) -> bytes:
    """Integrity view of an L1PT page: the tracer's reserved bit 51 is
    SoftTRR's own legitimate bookkeeping in every entry, so it is masked
    out before comparing (bit 51 = bit 3 of byte 6 of each qword)."""
    view = bytearray(page_bytes)
    for entry in range(0, len(view), 8):
        view[entry + 6] &= ~0x08
    return bytes(view)


@dataclass
class AttackOutcome:
    """Result of one attack run (one Table II cell)."""

    attack: str
    machine: str
    m: int
    hammer_time_ns: int
    targeted_pt_pages: List[int]
    flipped_pt_pages: List[int]
    flip_events_in_pts: int
    softtrr_loaded: bool

    @property
    def bit_flip_failed(self) -> bool:
        """True when no targeted L1PT page was corrupted — the Table II
        checkmark meaning the defense held."""
        return not self.flipped_pt_pages

    @property
    def succeeded(self) -> bool:
        """True when the attack corrupted at least one L1PT page."""
        return bool(self.flipped_pt_pages)


@dataclass
class PlacedTarget:
    """One victim after placement: an L1PT page on a vulnerable frame."""

    victim_ppn: int
    aggressor_vaddrs: List[int]
    template: VulnerablePage
    #: Extra per-round delay for this target's hammer loop.
    per_iter_delay_ns: int = 0


class PageTableAttack:
    """Base class for the three Section V attacks."""

    name = "abstract"
    pattern = "double_sided"

    def __init__(self, kernel, m: int = 4, region_pages: int = 320,
                 template_rounds: int = 22_000,
                 pattern_override: Optional[str] = None) -> None:
        self.kernel = kernel
        self.m = m
        self.region_pages = region_pages
        self.template_rounds = template_rounds
        if pattern_override is not None:
            self.pattern = pattern_override
        self.process = kernel.create_process(f"{self.name}-attacker")
        self.kit = HammerKit(kernel, self.process)
        self.templater = FlipTemplater(
            kernel, self.process, self.kit,
            region_provider=self._template_region_provider())
        self.targets: List[PlacedTarget] = []
        self.vulnerable: List[VulnerablePage] = []
        self._snapshots: Dict[int, bytes] = {}

    def _template_region_provider(self):
        """Memory source for templating (None = ordinary mmap)."""
        return None

    # ------------------------------------------------------------ phases
    def setup(self) -> None:
        """Template + place.  Subclasses implement :meth:`_place`."""
        self.vulnerable = self.templater.find_vulnerable_pages(
            self.m,
            pattern=self.pattern,
            region_pages=self.region_pages,
            rounds=self.template_rounds,
            per_iter_delay_ns=self._template_delay_ns(),
        )
        self._place()
        if len(self.targets) != self.m:
            raise AttackError(
                f"{self.name}: placed {len(self.targets)} of {self.m} targets")

    def _template_delay_ns(self) -> int:
        """Per-round delay used to rate-match templating (Section V-C)."""
        return 0

    def _place(self) -> None:
        raise NotImplementedError

    def run(self, hammer_ns_per_victim: int = 8_000_000) -> AttackOutcome:
        """Hammer every placed target and check L1PT integrity."""
        if not self.targets:
            raise AttackError(f"{self.name}: setup() has not placed targets")
        kernel = self.kernel
        self._snapshots = {
            t.victim_ppn: kernel.dram.raw_read(t.victim_ppn << 12, PAGE)
            for t in self.targets
        }
        start = kernel.clock.now_ns
        crash: Optional[DramError] = None
        for target in self.targets:
            self._sync_refresh_window(hammer_ns_per_victim)
            try:
                self._hammer_target(target, hammer_ns_per_victim)
            except DramError as exc:
                # A flip in a sprayed PTE can point the attacker's next
                # access past the end of memory: the corruption the
                # integrity check looks for has already happened.
                crash = exc
                break
        hammer_time = kernel.clock.now_ns - start
        flipped = []
        flip_events = 0
        for target in self.targets:
            after = kernel.dram.raw_read(target.victim_ppn << 12, PAGE)
            before = self._snapshots[target.victim_ppn]
            if _pt_view(after) != _pt_view(before):
                flipped.append(target.victim_ppn)
            flip_events += sum(
                1 for f in kernel.dram.flips_in_page(target.victim_ppn)
                if f.at_ns >= start)
        if crash is not None and not flipped:
            raise crash
        return AttackOutcome(
            attack=self.name,
            machine=kernel.spec.name,
            m=self.m,
            hammer_time_ns=hammer_time,
            targeted_pt_pages=[t.victim_ppn for t in self.targets],
            flipped_pt_pages=flipped,
            flip_events_in_pts=flip_events,
            softtrr_loaded=kernel.module("softtrr") is not None,
        )

    # ------------------------------------------------------------ helpers
    def _hammer_target(self, target: PlacedTarget, duration_ns: int) -> None:
        self.kit.run_for(
            target.aggressor_vaddrs, duration_ns,
            per_iter_delay_ns=target.per_iter_delay_ns)

    def _sync_refresh_window(self, needed_ns: int) -> None:
        """Start each victim's hammer at a refresh-window boundary so the
        run is not split by an auto-refresh (real attackers sync too)."""
        window = self.kernel.dram.timings.refresh_window_ns
        into = self.kernel.clock.now_ns % window
        if into + needed_ns > window:
            self.kernel.clock.advance(window - into)
