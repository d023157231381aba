"""``repro-zoo``: the defense-zoo sweep (:mod:`repro.analysis.zoo`) as a CLI.

Kept apart from the zoo module because the scenario registry imports
that module while the package loads: ``python -m repro.analysis.zoo``
would run it a second time as ``__main__``.  Run
``python -m repro.analysis.zoo_cli`` (or ``repro-zoo``) instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .. import cli_common
from ..errors import ConfigError, ReproError
from .zoo import (
    DEFAULT_SEED,
    PATTERNS,
    ZOO_DEFENSES,
    run_zoo_matrix,
    summarise_matrix,
)

__all__ = ["main"]


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
    cli_common.add_seed_option(parser, default=DEFAULT_SEED)
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
