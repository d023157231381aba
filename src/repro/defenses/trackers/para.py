"""PARA: probabilistic adjacent row activation (Kim et al. [26]).

The original rowhammer mitigation: on every ACT, with a small
probability ``p`` refresh the activated row's neighbours.  No tracking
state at all — an attacker hammering N times gets caught with
probability ``1 - (1 - p)^N``, which for the paper-recommended
``p = 0.001`` makes a 100k-ACT hammer survive with odds ~4e-44.  The
cost is a steady ~``2p`` refresh overhead on *every* workload, hammered
or not, and no protection guarantee (it is probabilistic, unlike
SoftTRR's precise page-table tracking).

The tracker draws one Bernoulli per ACT from a
:func:`~repro.rng.derive_rng` stream keyed by the machine seed, so runs
are deterministic and scalar and batched execution see the identical
draw sequence (the feed publishes identically in both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...errors import ConfigError
from ...rng import Random, derive_rng
from ..base import Defense, register_defense
from ...dram.feed import Tracker


@dataclass(frozen=True)
class ParaParams:
    """PARA configuration."""

    #: Per-ACT probability of refreshing the aggressor's neighbours.
    probability: float = 0.001
    #: How far out to refresh when triggered (rows each side).
    refresh_distance: int = 1
    #: Extra seed component (machine seed is always mixed in).
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigError("PARA probability must be in (0, 1]")
        if self.refresh_distance < 1:
            raise ConfigError("PARA refresh distance must be >= 1")


class ParaTracker(Tracker):
    """Stateless per-ACT coin flip; zero SRAM."""

    name = "para"

    def __init__(self, params: ParaParams, rng: Random, remap=None) -> None:
        super().__init__()
        self.params = params
        self.rng = rng
        self.remap = remap
        self.triggers = 0

    def observe(self, bank: int, row: int, count: int, epoch: int,
                now_ns: int) -> None:
        probability = self.params.probability
        rng_random = self.rng.random
        hits = 0
        for _ in range(count):
            if rng_random() < probability:
                hits += 1
        if not hits:
            return
        self.triggers += hits
        for distance in range(1, self.params.refresh_distance + 1):
            if self.remap is not None:
                for victim in self.remap.neighbors_at(row, distance):
                    self.queue_refresh(bank, victim)
            else:
                self.queue_refresh(bank, row - distance)
                self.queue_refresh(bank, row + distance)

    def counters(self) -> Dict[str, int]:
        return {"triggers": self.triggers}

    def sram_bits(self) -> int:
        return 0


@register_defense
class ParaDefense(Defense):
    """PARA as a deployable defense configuration."""

    name = "para"
    summary = "probabilistic adjacent row activation (stateless)"

    def __init__(self, probability: float = 0.001,
                 refresh_distance: int = 1, seed: int = 0) -> None:
        self.params = ParaParams(
            probability=probability,
            refresh_distance=refresh_distance,
            seed=seed,
        )
        self._tracker: Optional[ParaTracker] = None

    def install(self, kernel) -> None:
        rng = derive_rng("tracker", self.name, kernel.spec.seed,
                         self.params.seed)
        self._tracker = ParaTracker(
            self.params, rng, remap=kernel.dram.remap
        )
        kernel.dram.feed.subscribe(self._tracker)
