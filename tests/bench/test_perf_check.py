"""The ``repro-perfbench --check`` perf-regression gate logic."""

from repro.bench.perf import REGRESSION_FLOOR, check_regression


def _payload(**rates):
    return {"hammer": {"cases": [
        {"label": label, "batched_act_per_s": rate}
        for label, rate in rates.items()]}}


class TestCheckRegression:
    def test_passes_at_and_above_the_floor(self):
        baseline = _payload(one_location=10_000_000)
        exactly = _payload(one_location=8_000_000)
        rows = check_regression(exactly, baseline)
        assert rows == [("one_location", 8_000_000, 8_000_000, True)]

    def test_fails_below_the_floor(self):
        baseline = _payload(one_location=10_000_000, double_sided=5_000_000)
        current = _payload(one_location=7_999_999, double_sided=5_100_000)
        rows = dict((label, ok) for label, _got, _req, ok
                    in check_regression(current, baseline))
        assert rows == {"one_location": False, "double_sided": True}

    def test_label_mismatches_never_trip_the_gate(self):
        baseline = _payload(one_location=10_000_000, retired_case=1)
        current = _payload(one_location=10_000_000, brand_new_case=1)
        rows = check_regression(current, baseline)
        assert [row[0] for row in rows] == ["one_location"]
        assert all(ok for *_ignored, ok in rows)

    def test_floor_is_twenty_percent(self):
        assert REGRESSION_FLOOR == 0.8

    def test_committed_baseline_carries_the_gated_cases(self):
        import json
        from pathlib import Path

        baseline_path = (Path(__file__).resolve().parents[2]
                         / "benchmarks" / "perf_baseline.json")
        baseline = json.loads(baseline_path.read_text())
        labels = {case["label"]
                  for case in baseline["hammer"]["cases"]}
        assert {"one_location", "double_sided"} <= labels
        # The committed snapshot must itself clear the acceptance bar,
        # or the gate would enshrine a sub-target baseline.
        rates = {case["label"]: case["batched_act_per_s"]
                 for case in baseline["hammer"]["cases"]}
        assert rates["one_location"] >= 10_000_000
        assert rates["double_sided"] * 2 >= rates["one_location"]


class TestTranslateRows:
    def test_one_report_only_row_per_mapping_kind(self):
        from repro.bench.perf import bench_translate

        rows = bench_translate(quick=True)["cases"]
        assert [(r["mapping"], r["run_shift"]) for r in rows] == [
            ("linear", 13), ("interleaved", 6)]
        for row in rows:
            for key in ("phys_to_dram_ns", "dram_to_phys_ns",
                        "raw_write_4k_ns", "raw_read_4k_ns",
                        "raw_read_8b_ns"):
                assert row[key] > 0

    def test_committed_baseline_carries_translate_rows(self):
        import json
        from pathlib import Path

        baseline_path = (Path(__file__).resolve().parents[2]
                         / "benchmarks" / "perf_baseline.json")
        baseline = json.loads(baseline_path.read_text())
        assert {case["mapping"] for case in baseline["translate"]["cases"]} == {
            "linear", "interleaved"}
