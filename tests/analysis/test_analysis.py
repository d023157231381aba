"""Tests for the analysis harness (small-scale versions of the benches)."""

import pytest

from repro.analysis.memory import run_lamp_series, summarise
from repro.analysis.overhead import (
    OverheadRow,
    measure_overhead,
    measure_suite_overhead,
)
from repro.analysis.robustness import run_table5
from repro.analysis.security import MatrixCell, Table2Row
from repro.analysis.tables import (
    render_lamp_series,
    render_matrix,
    render_overhead_table,
    render_table,
    render_table2,
    render_table5,
    save_result,
)
from repro.config import tiny_machine
from repro.workloads.base import WorkloadProfile

FAST = WorkloadProfile(name="fast", duration_ms=25, hot_pages=8,
                       cold_pool_pages=64, cold_touches=2, churn_prob=0.1)


class TestOverhead:
    def test_measure_overhead_noise_free(self):
        row = measure_overhead(FAST, spec_factory=tiny_machine,
                               noise_sigma_pct=0.0)
        assert row.vanilla_ns > 0
        assert row.delta6_ns >= row.vanilla_ns  # noise-free: never negative
        assert row.delta1_ns >= row.vanilla_ns
        assert 0.0 <= row.delta6_pct < 5.0

    def test_noise_is_deterministic(self):
        a = measure_overhead(FAST, spec_factory=tiny_machine, seed=5)
        b = measure_overhead(FAST, spec_factory=tiny_machine, seed=5)
        assert a.delta6_pct == b.delta6_pct

    def test_suite_appends_mean(self):
        profiles = {"fast": FAST}
        rows = measure_suite_overhead(profiles, ["fast"],
                                      spec_factory=tiny_machine,
                                      noise_sigma_pct=0.0)
        assert [r.name for r in rows] == ["fast", "Mean"]
        assert rows[1].delta6_pct == pytest.approx(rows[0].delta6_pct)

    def test_duration_override(self):
        profiles = {"fast": FAST}
        rows = measure_suite_overhead(profiles, ["fast"],
                                      spec_factory=tiny_machine,
                                      noise_sigma_pct=0.0,
                                      duration_override_ms=10)
        assert rows[0].vanilla_ns >= 10_000_000
        assert rows[0].vanilla_ns < 25_000_000


class TestRobustness:
    def test_table5_all_pass_on_tiny_machine(self):
        rows = run_table5(spec_factory=tiny_machine, iterations=6)
        assert len(rows) == 20
        for row in rows:
            assert row.vanilla and row.delta1 and row.delta6, row.error
        assert {"pass"} == set(
            mark for row in rows for mark in row.cells())


class TestMemorySeries:
    def test_lamp_series_and_summary(self):
        series = run_lamp_series(distances=(1, 6), minutes=5,
                                 spec_factory=tiny_machine,
                                 workers=2, requests_per_minute=8)
        assert set(series) == {1, 6}
        for samples in series.values():
            assert len(samples) == 5
            summary = summarise(samples)
            assert summary["ringbuf_kib"] == 396.0
            assert summary["final_memory_kib"] > 396.0
        assert series[6][-1].traced_pages >= series[1][-1].traced_pages


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "long-header"], [["x", 1], ["yy", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[2]
        assert len({len(l) for l in lines[2:4]}) <= 2  # consistent widths

    def test_render_table2(self):
        row = Table2Row(machine="M", cpu="C", dram="D", attack="a", m=2,
                        baseline_flipped_pages=2, softtrr_flipped_pages=0,
                        softtrr_pt_flip_events=9, bit_flip_failed=True)
        text = render_table2([row])
        assert "yes" in text and "Table II" in text

    def test_render_overhead(self):
        row = OverheadRow(name="p", vanilla_ns=100, delta1_ns=101,
                          delta6_ns=102, delta1_pct=1.0, delta6_pct=2.0)
        text = render_overhead_table([row], "T3")
        assert "+1.00%" in text and "+2.00%" in text

    def test_render_table5(self):
        from repro.analysis.robustness import Table5Row
        row = Table5Row(category="File", name="open", vanilla=True,
                        delta1=True, delta6=False)
        text = render_table5([row])
        assert "FAIL" in text and "pass" in text

    def test_render_matrix(self):
        cell = MatrixCell(defense="catt", attack="cattmew",
                          verdict="bypassed", detail="1/1")
        assert "bypassed" in render_matrix([cell])

    def test_render_lamp_series(self):
        series = run_lamp_series(distances=(1,), minutes=3,
                                 spec_factory=tiny_machine,
                                 workers=2, requests_per_minute=5)
        text = render_lamp_series(series, "memory_bytes", "Fig4",
                                  unit_divisor=1024.0, unit="KiB")
        assert "Fig4" in text and "minute" in text
        assert "ring buffer 396" in text

    def test_save_result(self, tmp_path):
        path = save_result("x.txt", "hello", results_dir=str(tmp_path))
        assert open(path).read() == "hello\n"
