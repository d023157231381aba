#!/usr/bin/env python3
"""Section V in one script: the three attacks, with and without SoftTRR.

Runs the scenario registry's Table II cells (``repro-sweep --group
table2``): each of the paper's three machines runs its attack twice —

* on the vanilla kernel — the attack templates vulnerable pages, places
  sprayed L1PTs on them with kernel assistance and hammers until the
  page tables corrupt;
* with SoftTRR loaded — same setup, but the tracer catches the very
  first access of every hammer burst and the Row Refresher recharges
  the page-table rows inside the 1 ms window.

Run:  python examples/defeat_attacks.py [--m 2]
(Each attack takes seconds: the templating phase hammers tens of
thousands of simulated activations per candidate row.)
"""

import argparse

from repro.analysis.security import run_table2
from repro.analysis.tables import render_table2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2,
                        help="victim L1PT pages per attack (paper: 50)")
    args = parser.parse_args()

    # None keeps the registry cells' own region size and templating
    # budget, so this script runs exactly what the table2 group runs.
    rows = run_table2(m=args.m, region_pages=None, template_rounds=None)
    for row in rows:
        verdict = "DEFEATED" if row.bit_flip_failed else "NOT stopped!"
        print(f"\n=== {row.attack} on {row.machine} ({row.dram}) ===")
        print(f"  vanilla kernel: {row.baseline_flipped_pages}/{row.m} "
              f"L1PT pages corrupted")
        print(f"  SoftTRR loaded: {row.softtrr_flipped_pages}/{row.m} "
              f"corrupted -> attack {verdict}")
    print()
    print(render_table2(rows))
    if all(row.baseline_flipped_pages and row.bit_flip_failed
           for row in rows):
        print("\nAll three attacks corrupt page tables on the vanilla "
              "kernel and fail under SoftTRR (Table II).")


if __name__ == "__main__":
    main()
