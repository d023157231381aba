"""Smoke tests: every example script runs end-to-end.

The slow example (defeat_attacks.py, which re-runs the full Table II
pipeline) is exercised at m=1; the others run at their defaults with
small argument overrides.
"""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(f"{EXAMPLES}/{name}", run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py", [])
    out = capsys.readouterr().out
    assert "SoftTRR loaded" in out
    assert "protected L1PT pages" in out


def test_reverse_engineer_dram(capsys):
    run_example("reverse_engineer_dram.py",
                ["--machine", "optiplex_990", "--samples", "160"])
    out = capsys.readouterr().out
    assert "exact match with ground truth: YES" in out


def test_lamp_monitoring(capsys):
    run_example("lamp_monitoring.py", ["--minutes", "3", "--workers", "2"])
    out = capsys.readouterr().out
    assert "requests served : 60" in out
    assert "ring buffer 396 KiB" in out


def test_present_bit_pitfall(capsys):
    run_example("present_bit_pitfall.py", [])
    out = capsys.readouterr().out
    assert "KERNEL PANIC" in out
    assert "system stable" in out


def test_protect_setuid(capsys):
    run_example("protect_setuid.py", [])
    out = capsys.readouterr().out
    assert "CODE CORRUPTED" in out          # the unprotected control run
    assert "opcodes intact — tracer" in out  # the protected run


@pytest.mark.slow
def test_defeat_attacks(capsys):
    run_example("defeat_attacks.py", ["--m", "1"])
    out = capsys.readouterr().out
    assert out.count("DEFEATED") == 3
    assert "NOT stopped" not in out
    assert out.count("vanilla kernel: 1/1 L1PT pages corrupted") == 3
