"""Small statistics and digest helpers shared by the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional, Sequence, Tuple

#: Percentiles :func:`tail_percentile` may report, highest last.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def canonical_digest(payload) -> str:
    """sha256 of ``payload`` as canonical JSON.

    The JSON is parsed back and re-dumped, so a payload read from a
    JSONL checkpoint and the same payload still in memory (tuples, int
    dict keys) digest identically.
    """
    text = json.dumps(payload, separators=(",", ":"))
    return text_digest(
        json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")))


def text_digest(text: str) -> str:
    """sha256 of an already-canonical text (``results_to_json`` output)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float]
                    ) -> Tuple[Optional[float], Optional[float], int]:
    """``(percentile, value, n)``: the highest of :data:`PERCENTILES`
    with at least :data:`MIN_BEYOND` samples above it.

    A percentile ``p`` leaves ``n * (1 - p/100)`` samples beyond it;
    with too few samples for even the median, the percentile and value
    are ``None``.  ``n`` is always the sample count.
    """
    n = len(values)
    best = None
    for p in PERCENTILES:
        # In tenths of a percent, so 90.0 of 100 samples leaves exactly 10.
        if n * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            best = p
    if best is None:
        return None, None, n
    return best, quantile(values, best / 100.0), n
