"""Gating for the batched fast paths (the ``REPRO_BATCH`` knob).

The batched execution layer (``DramModule.hammer_batch``,
``Mmu.access_run``, the workload engine's hot-touch replay) is
*semantically invisible*: every batched run produces byte-identical DRAM
state, identical flip events and identical simulated time as the scalar
path (enforced by ``tests/perf/test_differential_equivalence.py``).
Batching is therefore on by default.

Setting ``REPRO_BATCH=0`` in the environment forces every component that
consults :func:`batch_enabled` back onto the scalar path, so any paper
benchmark can be replayed access-by-access for spot-check parity.
"""

from __future__ import annotations

import os

__all__ = ["batch_enabled"]

#: Environment values that disable the batched fast paths.
_OFF_VALUES = frozenset({"0", "false", "no", "off"})


def batch_enabled(default: bool = True) -> bool:
    """Whether batched fast paths should be used.

    Reads ``REPRO_BATCH`` at call time (not import time) so a test or
    bench harness can flip the knob between runs.
    """
    value = os.environ.get("REPRO_BATCH")
    if value is None:
        return default
    return value.strip().lower() not in _OFF_VALUES
