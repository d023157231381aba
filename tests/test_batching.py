"""Tests for the ``REPRO_BATCH`` knob (:mod:`repro.batching`) and the
retired ``REPRO_DENSE`` one."""

import dataclasses

import pytest

from repro.batching import batch_enabled
from repro.clock import SimClock
from repro.config import tiny_machine
from repro.dram import DenseDisturbanceEngine, DramModule
from repro.errors import ConfigError
from repro.machine import Machine, MachineConfig
from repro.workloads.base import WorkloadProfile


class TestBatchEnabled:
    def test_default_on_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert batch_enabled()
        assert not batch_enabled(default=False)

    @pytest.mark.parametrize("value", ["0", "false", "no", "off",
                                       " OFF ", "False"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        assert not batch_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", ""])
    def test_everything_else_is_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        assert batch_enabled()

    def test_read_at_call_time_not_import_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        assert not batch_enabled()
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert batch_enabled()


class TestDenseEnabled:
    """``REPRO_DENSE`` used to choose the accumulator store.  The
    simulator now has one store, so no value of the variable — a former
    on value, a former off value, or none — may select another."""

    @staticmethod
    def engine_type():
        return type(Machine(machine="tiny").dram.engine)

    def test_default_on_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE", raising=False)
        assert self.engine_type() is DenseDisturbanceEngine

    @pytest.mark.parametrize("value", ["0", "false", "no", "off",
                                       " OFF ", "False"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DENSE", value)
        assert self.engine_type() is DenseDisturbanceEngine

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", ""])
    def test_everything_else_is_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DENSE", value)
        assert self.engine_type() is DenseDisturbanceEngine

    def test_no_setting_selects_the_store(self):
        spec = tiny_machine()
        parts = (spec.build_mapping(), spec.timings, spec.disturbance,
                 spec.trr, SimClock())
        assert type(DramModule(*parts).engine) is DenseDisturbanceEngine
        with pytest.raises(TypeError):
            DramModule(*parts, dense=False)
        with pytest.raises(TypeError):
            MachineConfig(machine="tiny", dense=False)
        with pytest.raises(TypeError):
            dataclasses.replace(spec, dense=False)


class TestHotTouchRepeat:
    def test_default_is_one(self):
        assert WorkloadProfile(name="p").hot_touch_repeat == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="p", hot_touch_repeat=0)
