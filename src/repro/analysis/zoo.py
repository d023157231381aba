"""Defense-zoo sweep: trackers head-to-head on one machine.

The layered tracker architecture makes defenses comparable: every
tracker rides the same :class:`~repro.dram.feed.ActivationFeed` and
heals through the same :class:`~repro.dram.feed.RefreshActuator`, so
one sweep can score them all on three axes at once:

* **protection** — did any :class:`FlipEvent` land (pattern leg), and
  did the memory-spray attack corrupt an L1PT (spray leg)?
* **refresh overhead** — actuator refreshes per DRAM activation (the
  shared actuator counts SoftTRR's refresher too, so the software
  defense lands on the same axis as the silicon trackers);
* **SRAM budget** — bits of tracker state per bank
  (:meth:`~repro.dram.feed.Tracker.sram_bits`; zero for the stateless
  PARA and for SoftTRR, whose state is kernel memory, not SRAM).

Two legs per defense:

* **pattern** — direct 1-sided / 2-sided / 8-sided hammering of the
  cheapest vulnerable neighbourhood, budgeted at 1.5x the victim's flip
  threshold per aggressor.  The 8-sided column is ChipTRR's TRRespass
  blind spot (more aggressors than tracker slots) and DAPPER's budget
  cliff (more crossings than the per-epoch mitigation budget).
* **spray** — the smoke-scale memory-spray attack (page-table centric,
  SoftTRR's home turf, mirroring the chaos harness minus the faults).

``repro-zoo --check`` gates CI: vanilla must flip somewhere (the bench
has teeth), every tracker must actuate somewhere (the feed is live) and
at least one tracker must fully protect a cell vanilla loses.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Mapping, Optional, Sequence

from .. import cli_common
from ..errors import AttackError, ConfigError, ReproError
from ..machine import Machine, MachineConfig
from ..scenarios.spec import ScenarioResult, ScenarioSpec

__all__ = [
    "PATTERNS",
    "TINY_DEFENSE_PARAMS",
    "ZOO_DEFENSES",
    "main",
    "run_zoo_cell",
    "run_zoo_matrix",
    "run_zoo_scenario",
    "summarise_matrix",
    "zoo_specs",
]

#: Sweep columns: aggressors per pattern leg cell.
PATTERNS = ("one_sided", "double_sided", "many_sided")

#: Sweep rows, in report order.
ZOO_DEFENSES = ("vanilla", "chiptrr", "softtrr", "para", "misra_gries",
                "ptmp", "dapper")

#: Defense parameters scaled to the tiny machine (flip thresholds start
#: at 2k weighted ACTs there, so trackers must trigger well below that).
TINY_DEFENSE_PARAMS: Dict[str, Dict] = {
    "vanilla": {},
    "softtrr": {"timer_inr_ns": 50_000},
    "chiptrr": {"tracker_slots": 2, "trr_threshold": 400,
                "refresh_distance": 6},
    "para": {"probability": 0.05, "refresh_distance": 1},
    "misra_gries": {"table_entries": 8, "threshold": 400,
                    "refresh_distance": 2},
    "ptmp": {"table_entries": 4, "threshold": 400,
             "insert_probability": 0.25, "refresh_distance": 2},
    "dapper": {"table_entries": 8, "threshold": 400,
               "mitigation_budget": 4, "refresh_distance": 2},
}

#: Aggressor offsets from the victim row, per pattern.  ``many_sided``
#: cycles eight rows — wider than ChipTRR's two slots.
_PATTERN_OFFSETS = {
    "one_sided": (-1,),
    "double_sided": (-1, 1),
    "many_sided": (-4, -3, -2, -1, 1, 2, 3, 4),
}

#: Bank-edge slack for the victim search: the widest pattern's reach,
#: so every pattern leg hammers the same victim.
_PATTERN_MARGIN = max(abs(off) for off in _PATTERN_OFFSETS["many_sided"])

#: Smoke-scale memory-spray knobs (mirrors the chaos harness).
_SPRAY_PARAMS = {"m": 1, "region_pages": 224, "template_rounds": 3_000,
                 "hammer_ns": 4_000_000}

#: Hammer rounds for the pattern leg (per-aggressor budget is split
#: across rounds so aggressors interleave, as real many-sided does).
_PATTERN_ROUNDS = 50


def _build_machine(defense: str, defense_params: Optional[Mapping],
                   machine_name: str) -> Machine:
    params = dict(TINY_DEFENSE_PARAMS.get(defense, {}))
    params.update(defense_params or {})
    return Machine(MachineConfig(
        machine=machine_name,
        defense=defense,
        defense_params=params,
        sanitize=True,
        strict_sanitizers=False,
    ))


def _tracker_metrics(machine: Machine) -> Dict[str, object]:
    dram = machine.dram
    flat = machine.telemetry.as_flat_dict()
    activations = dram.total_activations
    refreshes = dram.actuator.refreshes
    return {
        "activations": activations,
        "refreshes": refreshes,
        "refresh_overhead": (refreshes / activations if activations else 0.0),
        "sram_bits": sum(t.sram_bits() for t in dram.feed.trackers()),
        "tracker_counters": {
            key: value for key, value in flat.items()
            if key.startswith("tracker.")},
    }


def run_zoo_cell(
    defense: str,
    pattern: str,
    seed: int = 11,
    machine_name: str = "tiny",
    defense_params: Optional[Mapping] = None,
    attack_params: Optional[Mapping] = None,
) -> dict:
    """One zoo cell; deterministic in all arguments.

    ``pattern`` is one of :data:`PATTERNS` (direct hammer leg) or
    ``"spray"`` (memory-spray attack leg).
    """
    if pattern == "spray":
        return _run_spray_cell(defense, seed, machine_name,
                               defense_params, attack_params)
    if pattern not in _PATTERN_OFFSETS:
        raise ConfigError(
            f"unknown zoo pattern {pattern!r}; known: "
            f"{PATTERNS + ('spray',)}")
    machine = _build_machine(defense, defense_params, machine_name)
    dram = machine.dram
    bank, victim, threshold = dram.engine.cheapest_victim(_PATTERN_MARGIN)
    offsets = _PATTERN_OFFSETS[pattern]
    budget = int(1.5 * threshold)
    per_round = max(1, budget // _PATTERN_ROUNDS)
    aggressors = [
        dram.mapping.dram_to_phys(bank, victim + offset, 0)
        for offset in offsets]
    hammer_start = machine.clock.now_ns
    for _ in range(_PATTERN_ROUNDS):
        for paddr in aggressors:
            dram.hammer(paddr, per_round)
    flips = sum(1 for flip in dram.flip_log if flip.at_ns >= hammer_start)
    payload: Dict[str, object] = {
        "defense": defense,
        "pattern": pattern,
        "seed": seed,
        "victim": [bank, victim],
        "victim_threshold": threshold,
        "aggressors": len(offsets),
        "acts_per_aggressor": per_round * _PATTERN_ROUNDS,
        "flip_events": flips,
        "protected": flips == 0,
    }
    payload.update(_tracker_metrics(machine))
    return payload


def _run_spray_cell(defense: str, seed: int, machine_name: str,
                    defense_params: Optional[Mapping],
                    attack_params: Optional[Mapping]) -> dict:
    from ..attacks.memory_spray import MemorySprayAttack

    knobs = dict(_SPRAY_PARAMS)
    knobs.update(attack_params or {})
    machine = _build_machine(defense, defense_params, machine_name)
    kernel = machine.kernel
    payload: Dict[str, object] = {
        "defense": defense,
        "pattern": "spray",
        "seed": seed,
    }
    try:
        attack = MemorySprayAttack(
            kernel, m=knobs["m"], region_pages=knobs["region_pages"],
            template_rounds=knobs["template_rounds"])
        attack.setup()
        hammer_start = kernel.clock.now_ns
        outcome = attack.run(hammer_ns_per_victim=knobs["hammer_ns"])
    except AttackError as exc:
        # A tracker that suppresses templating (no flips to template
        # with) blocks the attack before it ever aims at a page table.
        payload.update({
            "verdict": "blocked",
            "detail": str(exc)[:60],
            "l1pt_flip_events": 0,
            "protected": True,
        })
    else:
        pt_frames = set(kernel.l1pt_frames()) | set(outcome.targeted_pt_pages)
        flips = sum(
            1
            for ppn in sorted(pt_frames)
            for flip in kernel.dram.flips_in_page(ppn)
            if flip.at_ns >= hammer_start)
        payload.update({
            "verdict": "bypassed" if outcome.succeeded else "blocked",
            "l1pt_flip_events": flips,
            "protected": not outcome.succeeded and flips == 0,
        })
    payload.update(_tracker_metrics(machine))
    return payload


def run_zoo_scenario(spec: ScenarioSpec) -> dict:
    """Adapter for the scenario runner (``kind="zoo"``)."""
    params = spec.params
    return run_zoo_cell(
        defense=spec.defense,
        pattern=params["pattern"],
        seed=params.get("seed", 11),
        machine_name=spec.machine,
        defense_params=spec.defense_params,
        attack_params={k: params[k] for k in
                       ("m", "region_pages", "template_rounds", "hammer_ns")
                       if k in params},
    )


def zoo_specs(
    defenses: Sequence[str] = ZOO_DEFENSES,
    patterns: Sequence[str] = PATTERNS + ("spray",),
    seed: int = 11,
    attack_params: Optional[Mapping] = None,
) -> List[ScenarioSpec]:
    """The sweep grid: every (defense, pattern) cell."""
    from ..defenses import DEFENSES

    specs = []
    for defense in defenses:
        if defense not in DEFENSES:
            raise ConfigError(
                f"unknown defense {defense!r}; known: {sorted(DEFENSES)}")
        for pattern in patterns:
            if pattern != "spray" and pattern not in _PATTERN_OFFSETS:
                raise ConfigError(
                    f"unknown zoo pattern {pattern!r}; known: "
                    f"{PATTERNS + ('spray',)}")
            params: Dict[str, object] = {"pattern": pattern, "seed": seed}
            if pattern == "spray" and attack_params:
                params.update(attack_params)
            specs.append(ScenarioSpec(
                name=f"zoo-{defense}-{pattern}",
                kind="zoo",
                group="zoo",
                title=f"Zoo: {defense} vs {pattern.replace('_', '-')}",
                machine="tiny",
                defense=defense,
                defense_params=TINY_DEFENSE_PARAMS.get(defense, {}),
                params=params,
            ))
    return specs


def run_zoo_matrix(
    defenses: Sequence[str] = ZOO_DEFENSES,
    patterns: Sequence[str] = PATTERNS + ("spray",),
    seed: int = 11,
    workers: int = 1,
    attack_params: Optional[Mapping] = None,
) -> List[ScenarioResult]:
    """Run the sweep grid through the scenario runner."""
    from ..scenarios.runner import run_sweep

    return run_sweep(
        zoo_specs(defenses, patterns, seed, attack_params), workers=workers)


def summarise_matrix(results: Sequence[ScenarioResult]) -> dict:
    """Per-defense protection-rate x overhead x SRAM digest."""
    defenses: Dict[str, dict] = {}
    for result in results:
        payload = result.payload
        entry = defenses.setdefault(payload["defense"], {
            "cells": 0,
            "protected_cells": 0,
            "refreshes": 0,
            "activations": 0,
            "sram_bits": 0,
        })
        entry["cells"] += 1
        entry["protected_cells"] += int(payload["protected"])
        entry["refreshes"] += payload["refreshes"]
        entry["activations"] += payload["activations"]
        entry["sram_bits"] = max(entry["sram_bits"], payload["sram_bits"])
    for entry in defenses.values():
        entry["protection_rate"] = (
            entry["protected_cells"] / entry["cells"] if entry["cells"]
            else 0.0)
        entry["refresh_overhead"] = (
            entry["refreshes"] / entry["activations"]
            if entry["activations"] else 0.0)
    vanilla = defenses.get("vanilla")
    trackers = {name: entry for name, entry in defenses.items()
                if name not in ("vanilla", "softtrr")}
    return {
        "defenses": defenses,
        "vanilla_flips_somewhere": bool(
            vanilla and vanilla["protected_cells"] < vanilla["cells"]),
        "all_trackers_actuate": bool(
            trackers and all(entry["refreshes"] > 0
                             for entry in trackers.values())),
        "some_tracker_beats_vanilla": bool(
            vanilla and trackers and any(
                entry["protected_cells"] > vanilla["protected_cells"]
                for entry in trackers.values())),
    }


# ---------------------------------------------------------------- the CLI
def _build_parser() -> argparse.ArgumentParser:
    parser = cli_common.build_parser(
        prog="repro-zoo",
        description=("Comparative tracker sweep: protection rate x refresh "
                     "overhead x SRAM budget per defense."),
    )
    cli_common.add_defenses_option(parser, default=ZOO_DEFENSES)
    parser.add_argument(
        "--patterns", nargs="*", default=list(PATTERNS + ("spray",)),
        help="hammer patterns and/or 'spray' "
             f"(default: {' '.join(PATTERNS + ('spray',))})")
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced cell count for CI: spray leg shrunk, patterns "
             "trimmed to one_sided + many_sided")
    cli_common.add_seed_option(parser, default=11)
    cli_common.add_jobs_option(parser)
    cli_common.add_out_option(
        parser, help_text="write the JSON report to PATH instead of stdout")
    cli_common.add_check_option(
        parser,
        help_text="exit non-zero unless vanilla flips somewhere, every "
                  "tracker actuates and some tracker protects a cell "
                  "vanilla loses (the CI gate)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    attack_params = None
    patterns = args.patterns
    if args.smoke:
        patterns = [p for p in patterns if p in ("one_sided", "many_sided",
                                                 "spray")]
        attack_params = {"region_pages": 160, "template_rounds": 2_000,
                         "hammer_ns": 3_000_000}
    try:
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        results = run_zoo_matrix(
            defenses=args.defenses, patterns=patterns,
            seed=args.seed, workers=args.jobs, attack_params=attack_params)
    except ReproError as exc:
        print(f"repro-zoo: error: {exc}", file=sys.stderr)
        return cli_common.EXIT_USAGE
    summary = summarise_matrix(results)
    report = {
        "seed": args.seed,
        "smoke": args.smoke,
        "summary": summary,
        "cells": [result.to_dict() for result in results],
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        cli_common.atomic_write_text(args.out, text)
        print(f"[{len(results)} zoo cells -> {args.out}]")
    else:
        sys.stdout.write(text)
    if args.check:
        failures = []
        if not summary["vanilla_flips_somewhere"]:
            failures.append("vanilla never flipped (bench has no teeth)")
        if not summary["all_trackers_actuate"]:
            failures.append("a tracker never actuated a refresh "
                            "(feed wiring dead?)")
        if not summary["some_tracker_beats_vanilla"]:
            failures.append("no tracker protected a cell vanilla loses")
        if failures:
            for failure in failures:
                print(f"repro-zoo: CHECK FAILED: {failure}", file=sys.stderr)
            return cli_common.EXIT_CHECK_FAILED
        print("repro-zoo: check passed "
              f"({len(results)} cells, trackers live, protection measured)",
              file=sys.stderr)
    return cli_common.EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
