"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest hostbench`` from the repository root.
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostbench import spans, stats  # noqa: E402
from hostbench.run import END_TO_END, per_layer_units  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        wrapped_middle()

    wrapped_leaf = recorder.wrap("leaf", leaf)
    wrapped_middle = recorder.wrap("middle", middle)
    recorder.wrap("outer", outer)()

    assert recorder.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert recorder.self_s["leaf"] == pytest.approx(2.0)
    assert recorder.self_s["middle"] == pytest.approx(2.5)
    assert recorder.self_s["outer"] == pytest.approx(3.0)
    # Self times partition the outermost span's duration.
    assert sum(recorder.self_s.values()) == pytest.approx(clock.now)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    def outer():
        with pytest.raises(KeyError):
            wrapped_boom()
        clock.now += 1.0

    wrapped_boom = recorder.wrap("boom", boom)
    recorder.wrap("outer", outer)()
    assert recorder.calls == {"boom": 1, "outer": 1}
    assert recorder.self_s["outer"] == pytest.approx(1.0)


def test_item_counter_sums_batch_lengths():
    recorder = spans.SpanRecorder()

    class Dram:
        def hammer_batch(self, items):
            return len(items)

    Dram.hammer_batch = recorder.wrap(
        "batch", Dram.hammer_batch, spans._len_of_first_arg)
    Dram().hammer_batch([1, 2, 3])
    Dram().hammer_batch([4])
    assert recorder.items["batch"] == 4 and recorder.calls["batch"] == 2


def test_install_wraps_and_restores_real_targets():
    from repro.dram.address import AddressMapping
    import repro.rng
    import repro.dram.disturbance

    original_method = AddressMapping.__dict__["phys_to_dram"]
    original_fn = repro.rng.derive_rng
    recorder = spans.SpanRecorder()
    handle = spans.install(recorder)
    try:
        assert AddressMapping.__dict__["phys_to_dram"] is not original_method
        # Module-level functions are patched where they were imported too.
        assert repro.dram.disturbance.derive_rng is repro.rng.derive_rng
        assert repro.rng.derive_rng is not original_fn
        repro.rng.derive_rng("probe", 1).random()
    finally:
        handle.remove()
    assert AddressMapping.__dict__["phys_to_dram"] is original_method
    assert repro.rng.derive_rng is original_fn
    assert repro.dram.disturbance.derive_rng is original_fn
    assert recorder.calls["rng.derive_rng"] == 1


def test_canonical_digest_ignores_representation_not_content():
    in_memory = {"b": (1, 2.5), "a": {3: "x"}}
    from_disk = json.loads(json.dumps(in_memory))
    assert stats.canonical_digest(in_memory) == stats.canonical_digest(from_disk)
    assert stats.canonical_digest({"a": 1, "b": 2}) == \
        stats.canonical_digest({"b": 2, "a": 1})
    assert stats.canonical_digest({"a": 1}) != stats.canonical_digest({"a": 2})
    assert re.fullmatch(r"[0-9a-f]{64}", stats.canonical_digest([]))


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(19))) == (None, None, 19)
    pct, value, n = stats.tail_percentile(list(range(20)))
    assert (pct, n) == (50.0, 20) and value == pytest.approx(9.5)
    assert stats.tail_percentile(list(range(100)))[0] == 90.0
    assert stats.tail_percentile(list(range(199)))[0] == 90.0
    assert stats.tail_percentile(list(range(200)))[0] == 95.0
    assert stats.tail_percentile(list(range(10000)))[0] == 99.9


def test_quantile_interpolates():
    assert stats.quantile([4, 1, 3, 2], 0.5) == pytest.approx(2.5)
    assert stats.quantile([5], 0.9) == 5
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    spec = json.loads(
        (ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])


def test_every_heavy_on_names_a_workload():
    from hostbench.workloads import WORKLOADS

    for target in spans.TARGETS:
        assert set(target.heavy_on) <= set(WORKLOADS)
