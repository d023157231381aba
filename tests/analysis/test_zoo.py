"""Zoo sweep harness: specs, summarisation, live cells, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.zoo import (
    DEFAULT_SEED,
    PATTERNS,
    ZOO_DEFENSES,
    run_zoo_cell,
    summarise_matrix,
    zoo_specs,
)
from repro.errors import ConfigError
from repro.scenarios.registry import scenario_group
from repro.scenarios.runner import run_sweep
from repro.scenarios.spec import ScenarioResult, results_to_json


class TestSpecs:
    def test_grid_covers_every_defense_and_pattern(self):
        specs = zoo_specs()
        assert len(specs) == len(ZOO_DEFENSES) * (len(PATTERNS) + 1)
        names = {spec.name for spec in specs}
        assert "zoo-vanilla-one_sided" in names
        assert "zoo-dapper-spray" in names
        assert all(spec.kind == "zoo" and spec.group == "zoo"
                   for spec in specs)

    def test_unknown_defense_rejected(self):
        with pytest.raises(ConfigError):
            zoo_specs(defenses=("not-a-defense",))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            zoo_specs(patterns=("ten_sided",))

    def test_registry_group_registered(self):
        specs = scenario_group("zoo")
        assert len(specs) == len(ZOO_DEFENSES) * (len(PATTERNS) + 1)
        assert all(spec.kind == "zoo" for spec in specs)


class TestSummarise:
    @staticmethod
    def _result(defense, protected, refreshes=5, activations=1000,
                sram_bits=64):
        return ScenarioResult(
            name=f"x-{defense}-{protected}-{refreshes}", kind="zoo",
            group="zoo",
            payload={"defense": defense, "protected": protected,
                     "refreshes": refreshes, "activations": activations,
                     "sram_bits": sram_bits})

    def test_rates_and_gates(self):
        summary = summarise_matrix([
            self._result("vanilla", False, refreshes=0, sram_bits=0),
            self._result("vanilla", False, refreshes=0, sram_bits=0),
            self._result("para", True),
            self._result("para", False),
        ])
        assert summary["defenses"]["para"]["protection_rate"] == 0.5
        assert summary["defenses"]["vanilla"]["protection_rate"] == 0.0
        assert summary["vanilla_flips_somewhere"] is True
        assert summary["all_trackers_actuate"] is True
        assert summary["some_tracker_beats_vanilla"] is True

    def test_dead_tracker_fails_the_gate(self):
        summary = summarise_matrix([
            self._result("vanilla", False, refreshes=0),
            self._result("ptmp", False, refreshes=0),
        ])
        assert summary["all_trackers_actuate"] is False
        assert summary["some_tracker_beats_vanilla"] is False

    def test_toothless_bench_fails_the_gate(self):
        summary = summarise_matrix([
            self._result("vanilla", True, refreshes=0),
            self._result("para", True),
        ])
        assert summary["vanilla_flips_somewhere"] is False


class TestLiveCells:
    def test_vanilla_cell_flips_and_is_deterministic(self):
        first = run_zoo_cell("vanilla", "one_sided")
        second = run_zoo_cell("vanilla", "one_sided")
        assert first == second
        assert first["flip_events"] > 0
        assert first["protected"] is False
        assert first["refreshes"] == 0
        assert first["sram_bits"] == 0

    def test_tracker_cell_protects_where_vanilla_flips(self):
        cell = run_zoo_cell("misra_gries", "one_sided")
        assert cell["protected"] is True
        assert cell["refreshes"] > 0
        assert cell["sram_bits"] > 0
        assert cell["tracker_counters"][
            "tracker.0.misra_gries.mitigations"] > 0

    def test_many_sided_is_chiptrr_blind_spot(self):
        cell = run_zoo_cell("chiptrr", "many_sided")
        assert cell["aggressors"] > 2  # wider than the tracker
        assert cell["protected"] is False
        two_sided = run_zoo_cell("chiptrr", "double_sided")
        assert two_sided["protected"] is True

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            run_zoo_cell("vanilla", "ten_sided")

    def test_seed_reaches_the_machine(self):
        from repro.config import tiny_machine

        # The default cell simulates the tiny profile as shipped.
        assert DEFAULT_SEED == tiny_machine().seed
        default = run_zoo_cell("vanilla", "double_sided")
        assert default == run_zoo_cell("vanilla", "double_sided", seed=7)
        assert default["seed"] == 7
        assert default["victim"] == [5, 7]
        reseeded = run_zoo_cell("vanilla", "double_sided", seed=8)
        assert reseeded["seed"] == 8
        assert reseeded["victim"] == [3, 8]

    def test_sweep_parallel_matches_serial(self):
        specs = zoo_specs(defenses=("vanilla", "chiptrr"),
                          patterns=("one_sided", "many_sided"))
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert results_to_json(serial) == results_to_json(parallel)


class TestCli:
    def test_module_runs_once_without_warnings(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "repro.analysis.zoo_cli", "--help"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "repro-zoo" in done.stdout
        # The package imports repro.analysis.zoo while it loads; were
        # the CLI there, runpy would execute that module twice and print
        # a RuntimeWarning.
        assert done.stderr == ""
