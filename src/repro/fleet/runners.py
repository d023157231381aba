"""Fleet cell runners: one cell dict in, one JSON-stable payload out.

Every runner is a pure function of the cell (seeded RNG, simulated
clock), so a retried or resumed cell reproduces its payload byte-for-
byte — the property the fleet's resume invariant rests on.  Runners
raise on failure; retry/backoff/quarantine policy belongs to the
supervisor, not here.

* ``scenario`` — materialise the cell onto a registered
  :class:`~repro.scenarios.spec.ScenarioSpec` (defense/seed/fault-plan
  overrides applied) and execute it through
  :func:`~repro.scenarios.runner.run_scenario`.
* ``window`` — a protection-window bench: hammer the cheapest
  vulnerable neighbourhood on a fresh machine with spans-level tracing
  and report flips, refresh overhead, windows covered and the span
  latency histograms (the fleet report's p50/p99 source).
* ``synthetic`` — hash-derived payloads plus scripted misbehaviour
  (poison / flaky / hang / pacing via ``runner_params``) for the
  fleet's own robustness tests and the CI smoke job.
* ``fuzz`` — one point of the seeded pattern-fuzz campaign
  (:mod:`repro.patterns.fuzz`), regenerated purely from the cell's
  ``point-<index>`` name and the campaign seed in ``runner_params`` —
  so a resumed fleet re-derives exactly the pattern a killed one was
  hammering.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Mapping, Optional

from ..errors import ConfigError

__all__ = [
    "WINDOW_PATTERNS",
    "fuzz_point_index",
    "materialise_scenario",
    "run_fleet_cell",
    "run_window_cell",
]

#: Patterns the ``window`` runner accepts on the scenarios axis.
WINDOW_PATTERNS = ("one_sided", "double_sided", "many_sided")

#: Fallback protection-window length when the cell's defense is not
#: SoftTRR (the paper's 1 ms refresh deadline).
_DEFAULT_WINDOW_NS = 1_000_000


# ------------------------------------------------------------- scenario
def materialise_scenario(cell: Mapping):
    """The cell's derived ScenarioSpec: base scenario + axis overrides.

    The seed and fault-plan axes travel through ``params`` (the
    scenario runner hands them to machine assembly); the defense axis
    replaces the base spec's defense/params wholesale when set.
    """
    from ..scenarios.registry import scenario
    from ..scenarios.spec import ScenarioSpec

    base = scenario(cell["scenario"])
    params = dict(base.params)
    if cell.get("seed") is not None:
        params["seed"] = cell["seed"]
    if cell.get("fault_plan"):
        params["fault_plan"] = dict(cell["fault_plan"])
    defense = base.defense
    defense_params = base.defense_params
    if cell.get("defense"):
        defense = cell["defense"]
        defense_params = dict(cell.get("defense_params") or {})
    return ScenarioSpec(
        name=base.name,
        kind=base.kind,
        group=base.group,
        title=base.title,
        machine=base.machine,
        defense=defense,
        defense_params=defense_params,
        attack=base.attack,
        workload=base.workload,
        pattern=base.pattern,
        params=params,
    )


def _run_scenario_cell(cell: Mapping, runner_params: Mapping,
                       attempt: int) -> dict:
    from ..scenarios.runner import run_scenario

    spec = materialise_scenario(cell)
    result = run_scenario(spec)
    payload = dict(result.payload)
    payload.setdefault("kind", spec.kind)
    # The resolved defense (base scenario's or the axis override), so
    # the fleet report can group scenario cells without the registry.
    payload.setdefault("defense", spec.defense)
    return payload


# --------------------------------------------------------------- window
def run_window_cell(
    pattern: str,
    defense: Optional[str] = None,
    defense_params: Optional[Mapping] = None,
    seed: Optional[int] = None,
    fault_plan: Optional[Mapping] = None,
    machine_name: str = "tiny",
    rounds: int = 50,
    budget_factor: float = 1.5,
) -> dict:
    """One protection-window bench cell; deterministic in all args.

    Builds a sanitized machine with spans-level tracing, hammers the
    cheapest vulnerable neighbourhood with ``pattern`` at
    ``budget_factor`` x the victim's flip threshold, and reports the
    protection story (flips, refreshes, windows covered, erosion under
    an active fault plan) plus the raw span histograms.
    """
    from ..analysis.zoo import (
        _PATTERN_MARGIN,
        _PATTERN_OFFSETS,
        TINY_DEFENSE_PARAMS,
    )
    from ..machine import Machine, MachineConfig

    if pattern not in WINDOW_PATTERNS:
        raise ConfigError(
            f"unknown window pattern {pattern!r}; known: "
            f"{WINDOW_PATTERNS}")
    defense = defense or "vanilla"
    params: Dict[str, object] = dict(
        TINY_DEFENSE_PARAMS.get(defense, {}) if machine_name == "tiny"
        else {})
    params.update(defense_params or {})
    machine = Machine(MachineConfig(
        machine=machine_name,
        defense=defense,
        defense_params=params,
        sanitize=True,
        strict_sanitizers=False,
        seed=seed,
        fault_plan=fault_plan,
        trace="spans",
    ))
    dram = machine.dram
    bank, victim, threshold = dram.engine.cheapest_victim(_PATTERN_MARGIN)
    offsets = _PATTERN_OFFSETS[pattern]
    budget = int(budget_factor * threshold)
    per_round = max(1, budget // max(1, rounds))
    aggressors = [
        dram.mapping.dram_to_phys(bank, victim + offset, 0)
        for offset in offsets]
    hammer_start = machine.clock.now_ns
    for _ in range(rounds):
        for paddr in aggressors:
            dram.hammer(paddr, per_round)
    hammer_ns = machine.clock.now_ns - hammer_start
    flips = sum(1 for flip in dram.flip_log if flip.at_ns >= hammer_start)
    window_ns = _DEFAULT_WINDOW_NS
    softtrr = getattr(machine, "softtrr", None)
    if softtrr is not None:
        window_ns = softtrr.params.protection_window_ns
    activations = dram.total_activations
    refreshes = dram.actuator.refreshes
    payload: Dict[str, object] = {
        "kind": "window",
        "pattern": pattern,
        "defense": defense,
        "seed": seed,
        "victim": [bank, victim],
        "victim_threshold": threshold,
        "aggressors": len(offsets),
        "acts_per_aggressor": per_round * rounds,
        "flip_events": flips,
        "protected": flips == 0,
        "activations": activations,
        "refreshes": refreshes,
        "refresh_overhead": (refreshes / activations
                             if activations else 0.0),
        "window_ns": window_ns,
        "windows": hammer_ns // window_ns,
        "hammer_ns": hammer_ns,
        "erosion_ns": _window_erosion_ns(machine, fault_plan, softtrr),
        "span_histograms": machine.telemetry.span_histograms(),
    }
    return payload


def _window_erosion_ns(machine, fault_plan: Optional[Mapping],
                       softtrr) -> int:
    """Protection time lost to unhealed faults (0 without a plan)."""
    if not fault_plan or softtrr is None:
        return 0
    from ..analysis.chaos import _erosion_ns
    from ..faults import FaultPlan

    plan = FaultPlan.coerce(fault_plan)
    trr = softtrr.params
    total = 0
    for site in plan.sites():
        counters = machine.telemetry.group(f"faults.{site}")
        if "injected" in counters:
            total += _erosion_ns(site, counters, trr.timer_inr_ns,
                                 trr.protection_window_ns)
    return total


def _run_window_cell(cell: Mapping, runner_params: Mapping,
                     attempt: int) -> dict:
    return run_window_cell(
        pattern=cell["scenario"],
        defense=cell.get("defense"),
        defense_params=cell.get("defense_params"),
        seed=cell.get("seed"),
        fault_plan=cell.get("fault_plan"),
        machine_name=runner_params.get("machine", "tiny"),
        rounds=runner_params.get("rounds", 50),
        budget_factor=runner_params.get("budget_factor", 1.5),
    )


# ----------------------------------------------------------------- fuzz
def fuzz_point_index(name: str) -> int:
    """The point index behind a ``point-<N>`` scenarios-axis name."""
    prefix, _, digits = name.partition("-")
    if prefix != "point" or not digits.isdigit():
        raise ConfigError(
            f"fuzz cells are named 'point-<index>', not {name!r}")
    return int(digits)


def _run_fuzz_cell(cell: Mapping, runner_params: Mapping,
                   attempt: int) -> dict:
    """One fuzz-campaign point as a fleet cell.

    The point is regenerated from ``(fuzz_seed, index)`` alone, so a
    retried or resumed cell hammers the identical pattern.  The
    defense axis picks the defense (default vanilla); the target
    follows the campaign convention (SoftTRR gets the page-table leg)
    unless ``runner_params["target"]`` pins it.
    """
    from ..patterns.fuzz import _target_for, point_spec, sample_point
    from ..patterns.scenario import run_pattern_scenario

    index = fuzz_point_index(cell["scenario"])
    fuzz_seed = runner_params.get("fuzz_seed", 11)
    point = sample_point(
        fuzz_seed, index,
        max_sides=runner_params.get("max_sides", 8))
    defense = cell.get("defense") or "vanilla"
    target = runner_params.get("target") or _target_for(defense)
    spec = point_spec(
        point, defense, fuzz_seed, target=target,
        defense_params=cell.get("defense_params"),
        machine_name=runner_params.get("machine", "tiny"))
    params = dict(spec.params)
    if cell.get("seed") is not None:
        params["seed"] = cell["seed"]
    if cell.get("fault_plan"):
        params["fault_plan"] = dict(cell["fault_plan"])
    from ..scenarios.spec import ScenarioSpec

    payload = run_pattern_scenario(ScenarioSpec(
        name=spec.name, kind=spec.kind, group=spec.group,
        title=spec.title, machine=spec.machine, defense=spec.defense,
        defense_params=spec.defense_params, pattern=spec.pattern,
        params=params))
    payload["kind"] = "pattern"
    payload["point"] = point.to_dict()
    return payload


# ------------------------------------------------------------ synthetic
#: Span-histogram boundaries the synthetic runner mirrors (the same
#: edges as repro.trace.metrics.DURATION_BUCKETS_NS, duplicated here so
#: synthetic cells never import the metrics layer; the fleet tests pin
#: the two tuples equal).
_SYNTH_BOUNDARIES = (
    100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
)


def _cell_selectors(cell: Mapping) -> List[str]:
    """Names ``runner_params`` targeting can match this cell by."""
    selectors = [cell["scenario"], cell["cell_id"]]
    if cell.get("seed") is not None:
        selectors.append(f"{cell['scenario']}@{cell['seed']}")
    return selectors


def _selected(cell: Mapping, targets) -> bool:
    if not targets:
        return False
    chosen = set(targets)
    return any(sel in chosen for sel in _cell_selectors(cell))


def _run_synthetic_cell(cell: Mapping, runner_params: Mapping,
                        attempt: int) -> dict:
    """Hash-derived deterministic payload with scripted misbehaviour.

    ``runner_params`` knobs (each selector matches the scenario name,
    ``scenario@seed``, or the cell id):

    * ``poison`` — cells that raise on every attempt (quarantine bait);
    * ``flaky`` — mapping of selector -> number of failing attempts
      before success (exercises the retry path);
    * ``hang`` / ``hang_s`` — cells that sleep past the fleet timeout;
    * ``sleep_ms`` — per-cell pacing so tests can kill a fleet mid-run.
    """
    if _selected(cell, runner_params.get("poison")):
        raise RuntimeError(f"synthetic poison cell {cell['cell_id']}")
    flaky = runner_params.get("flaky") or {}
    for selector in _cell_selectors(cell):
        failures = flaky.get(selector)
        if failures is not None and attempt <= int(failures):
            raise RuntimeError(
                f"synthetic flaky cell {cell['cell_id']} "
                f"(attempt {attempt}/{failures})")
    if _selected(cell, runner_params.get("hang")):
        time.sleep(float(runner_params.get("hang_s", 3600.0)))
    sleep_ms = runner_params.get("sleep_ms", 0)
    if sleep_ms:
        time.sleep(sleep_ms / 1000.0)
    digest = hashlib.sha256(
        ("synthetic:" + cell["cell_id"]).encode("utf-8")).digest()
    h = int.from_bytes(digest[:8], "big")
    flips = (h >> 8) % 3 + 1 if h % 7 == 0 else 0
    activations = 1_000 + h % 4_096
    refreshes = h % 64
    observations = [
        (int.from_bytes(digest[i:i + 2], "big") * 37) % 400_000
        for i in range(0, 24, 2)]
    return {
        "kind": "synthetic",
        "defense": cell.get("defense") or "vanilla",
        "seed": cell.get("seed"),
        "flip_events": flips,
        "protected": flips == 0,
        "activations": activations,
        "refreshes": refreshes,
        "refresh_overhead": refreshes / activations,
        "window_ns": _DEFAULT_WINDOW_NS,
        "windows": 64 + h % 64,
        "erosion_ns": (h % 5) * 50_000 if cell.get("fault_plan") else 0,
        "span_histograms": {
            "synthetic.tick": _synth_histogram(observations)},
    }


def _synth_histogram(observations) -> dict:
    """A Histogram.as_dict()-shaped record without touching metrics."""
    counts = [0] * (len(_SYNTH_BOUNDARIES) + 1)
    for value in observations:
        index = len(_SYNTH_BOUNDARIES)
        for i, edge in enumerate(_SYNTH_BOUNDARIES):
            if value <= edge:
                index = i
                break
        counts[index] += 1
    return {
        "boundaries": list(_SYNTH_BOUNDARIES),
        "counts": counts,
        "total": len(observations),
        "sum": sum(observations),
    }


_RUNNERS = {
    "scenario": _run_scenario_cell,
    "window": _run_window_cell,
    "synthetic": _run_synthetic_cell,
    "fuzz": _run_fuzz_cell,
}


def run_fleet_cell(cell: Mapping, runner: str, runner_params: Mapping,
                   attempt: int = 1) -> dict:
    """Execute one cell with the named runner (raises on failure)."""
    try:
        execute = _RUNNERS[runner]
    except KeyError:
        raise ConfigError(
            f"unknown cell runner {runner!r}; known: "
            f"{tuple(_RUNNERS)}") from None
    return execute(cell, dict(runner_params or {}), attempt)
