"""Table II / baseline-matrix folds over the registry's attack cells.

``run_scenario`` is replaced by a canned-payload stub, so these tests
pin the folding (row pairing, detail strings, param overrides) in
milliseconds; the live cells run in the scenario and bench suites.
"""

import pytest

from repro.analysis.security import run_baseline_matrix, run_table2
from repro.scenarios.spec import ScenarioResult


@pytest.fixture
def canned(monkeypatch):
    """Install a ``run_scenario`` stub answering ``payload_for(spec)``;
    returns the list of specs it was called with."""
    calls = []

    def install(payload_for):
        def fake_run_scenario(spec):
            calls.append(spec)
            return ScenarioResult(name=spec.name, kind=spec.kind,
                                  group=spec.group,
                                  payload=payload_for(spec))

        monkeypatch.setattr("repro.scenarios.runner.run_scenario",
                            fake_run_scenario)
        return calls

    return install


def _attack_payload(flipped, softtrr_loaded):
    return {
        "verdict": "bypassed" if flipped else "blocked",
        "m": 2,
        "flipped_pt_pages": list(flipped),
        "flip_events_in_pts": 3 * len(flipped),
        "bit_flip_failed": softtrr_loaded and not flipped,
    }


class TestTable2Fold:
    def test_pairs_vanilla_and_softtrr_cells(self, canned):
        def payload_for(spec):
            if spec.defense == "vanilla":
                return _attack_payload([10, 11], softtrr_loaded=False)
            # PThammer gets through SoftTRR in this canned world.
            flipped = [12] if spec.attack == "pthammer" else []
            return _attack_payload(flipped, softtrr_loaded=True)

        calls = canned(payload_for)
        rows = run_table2(m=3, region_pages=100, template_rounds=500)
        assert len(calls) == 6
        for spec in calls:
            assert (spec.params["m"], spec.params["region_pages"],
                    spec.params["template_rounds"]) == (3, 100, 500)
            assert spec.params["install_after_setup"] is True
        assert [row.attack for row in rows] == [
            "memory_spray", "cattmew", "pthammer"]
        assert [row.machine for row in rows] == [
            "Dell Optiplex 390", "Dell Optiplex 990", "Thinkpad X230"]
        assert all(row.m == 3 for row in rows)
        assert all(row.baseline_flipped_pages == 2 for row in rows)
        assert [row.bit_flip_failed for row in rows] == [True, True, False]
        assert [row.checkmark for row in rows] == ["yes", "yes", "NO"]
        assert [row.softtrr_flipped_pages for row in rows] == [0, 0, 1]
        assert [row.softtrr_pt_flip_events for row in rows] == [0, 0, 3]

    def test_none_keeps_the_registry_knobs(self, canned):
        from repro.scenarios.registry import scenario_group

        calls = canned(lambda spec: _attack_payload(
            [], softtrr_loaded=spec.defense == "softtrr"))
        run_table2(m=1, region_pages=None, template_rounds=None)
        registry = {spec.name: spec.params
                    for spec in scenario_group("table2")}
        for spec in calls:
            assert spec.params == {**registry[spec.name], "m": 1}


class TestBaselineMatrixFold:
    def test_details_from_payload_or_flip_count(self, canned):
        def payload_for(spec):
            if (spec.defense, spec.attack) == ("catt", "memory_spray"):
                return {"verdict": "blocked",
                        "detail": "DefenseError: structural"}
            if spec.defense == "softtrr":
                return {"verdict": "blocked", "m": 1,
                        "flipped_pt_pages": []}
            return {"verdict": "bypassed", "m": 1,
                    "flipped_pt_pages": [7]}

        calls = canned(payload_for)
        cells = run_baseline_matrix(template_rounds=1_234)
        assert len(cells) == len(calls) == 19
        assert all(spec.params["template_rounds"] == 1_234
                   for spec in calls)
        by_key = {(c.defense, c.attack): c for c in cells}
        blocked = by_key[("catt", "memory_spray")]
        assert (blocked.verdict, blocked.detail) == (
            "blocked", "DefenseError: structural")
        flipped = by_key[("vanilla", "pthammer_spray")]
        assert (flipped.verdict, flipped.detail) == (
            "bypassed", "1/1 PTs flipped")
        held = by_key[("softtrr", "cattmew")]
        assert (held.verdict, held.detail) == ("blocked", "0/1 PTs flipped")
