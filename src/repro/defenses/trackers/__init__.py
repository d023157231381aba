"""Pluggable activation-tracker defenses (the "zoo").

Each module here pairs a :class:`~repro.dram.feed.Tracker` policy with a
self-registering :class:`~repro.defenses.base.Defense` that subscribes
it to the machine's :class:`~repro.dram.feed.ActivationFeed` at install
time.  The trackers differ only in *policy* — observation (the feed)
and actuation (the shared :class:`~repro.dram.feed.RefreshActuator`)
are common infrastructure:

* :mod:`repro.defenses.trackers.chiptrr` — the in-DRAM Misra-Gries
  sampler as a first-class defense (enabled regardless of the machine
  profile's TRR setting).
* :mod:`repro.defenses.trackers.para` — PARA [26]: stateless
  probabilistic adjacent-row activation; zero SRAM, tunable p.
* :mod:`repro.defenses.trackers.misra_gries` — Graphene-style [41]
  heavy-hitter counting with subtract-on-mitigate, larger tables than
  ChipTRR.
* :mod:`repro.defenses.trackers.ptmp` — PTMP (arXiv:2404.16256):
  probabilistic insertion with random eviction, trading SRAM for a
  small miss probability.
* :mod:`repro.defenses.trackers.dapper` — DAPPER (arXiv:2501.18857):
  budget-capped mitigation for power-constrained parts; exceeds of the
  per-epoch budget are suppressed (and counted).

All trackers share the feed's guarantees: bit-identical behaviour
across scalar and batched execution, snapshot/restore replay,
trace-on ≡ trace-off, and :func:`~repro.rng.derive_rng`-seeded
randomness keyed by the machine seed.
"""

from ...dram.feed import ActivationFeed, RefreshActuator, Tracker
from .chiptrr import ChipTrrDefense
from .para import ParaDefense, ParaParams, ParaTracker
from .misra_gries import MisraGriesDefense, MisraGriesParams, MisraGriesTracker
from .ptmp import PtmpDefense, PtmpParams, PtmpTracker
from .dapper import DapperDefense, DapperParams, DapperTracker

__all__ = [
    "ActivationFeed",
    "RefreshActuator",
    "Tracker",
    "ChipTrrDefense",
    "ParaDefense",
    "ParaParams",
    "ParaTracker",
    "MisraGriesDefense",
    "MisraGriesParams",
    "MisraGriesTracker",
    "PtmpDefense",
    "PtmpParams",
    "PtmpTracker",
    "DapperDefense",
    "DapperParams",
    "DapperTracker",
]
