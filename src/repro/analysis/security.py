"""Security evaluation harness (Table II + the baseline matrix).

``run_table2`` reproduces Section V: each of the paper's three machines
runs its attack twice — on the vanilla system (the attack must corrupt
L1PTs, or the experiment is vacuous) and with SoftTRR loaded (the
Table II checkmark: "Bit Flip Failed?").

``run_baseline_matrix`` reproduces the comparison claims of Sections
I/II: which of CATT / CTA / ZebRAM / ANVIL stop which attack, and why
SoftTRR is the only one that stops all of them.

Both are folds over the scenario registry's ``table2`` / ``baselines``
attack cells, executed by :func:`repro.scenarios.runner.run_scenario` —
the registry is the one place the grids and their knobs live.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..config import machine as machine_spec


@dataclass
class Table2Row:
    """One Table II line."""

    machine: str
    cpu: str
    dram: str
    attack: str
    m: int
    baseline_flipped_pages: int
    softtrr_flipped_pages: int
    softtrr_pt_flip_events: int
    bit_flip_failed: bool

    @property
    def checkmark(self) -> str:
        """The Table II cell."""
        return "yes" if self.bit_flip_failed else "NO"


def _run_group(group: str, **overrides) -> list:
    """``(spec, payload)`` per registry cell of ``group``, with
    ``overrides`` applied to each cell's params (``None`` keeps the
    cell's own value)."""
    # Imported here: the registry imports analysis.zoo, and so this
    # package, at module level.
    from ..scenarios.registry import scenario_group
    from ..scenarios.runner import run_scenario

    out = []
    for spec in scenario_group(group):
        spec = replace(spec, params={
            **spec.params,
            **{k: v for k, v in overrides.items() if v is not None}})
        out.append((spec, run_scenario(spec).payload))
    return out


def run_table2(m: int = 2, region_pages: Optional[int] = 320,
               template_rounds: Optional[int] = 22_000) -> List[Table2Row]:
    """Regenerate Table II (scaled: m victims per attack).

    ``None`` for ``region_pages`` / ``template_rounds`` runs the
    registry cells' own values.
    """
    cells = _run_group("table2", m=m, region_pages=region_pages,
                       template_rounds=template_rounds)
    rows: List[Table2Row] = []
    # The registry lists each attack's vanilla cell, then its softtrr one.
    for (spec, baseline), (_, defended) in zip(cells[::2], cells[1::2]):
        hardware = machine_spec(spec.machine)
        rows.append(Table2Row(
            machine=hardware.name,
            cpu=f"{hardware.cpu_arch}/{hardware.cpu_model}",
            dram=hardware.dram_part,
            attack=spec.attack,
            m=m,
            baseline_flipped_pages=len(baseline["flipped_pt_pages"]),
            softtrr_flipped_pages=len(defended["flipped_pt_pages"]),
            softtrr_pt_flip_events=defended["flip_events_in_pts"],
            bit_flip_failed=defended["bit_flip_failed"],
        ))
    return rows


# --------------------------------------------------------------- baselines
@dataclass
class MatrixCell:
    """One (defense, attack) result of the baseline comparison."""

    defense: str
    attack: str
    #: "blocked" (no flips / placement or templating refused),
    #: "bypassed" (the attack corrupted L1PTs).
    verdict: str
    detail: str = ""


def run_baseline_matrix(template_rounds: int = 3_000) -> List[MatrixCell]:
    """Run every registry (defense, attack) pair; returns the cells.

    A defense "blocks" an attack either structurally (templating finds
    nothing / the kernel refuses the placement; the payload says which)
    or dynamically (the hammering produces no flips in L1PT pages).
    """
    return [
        MatrixCell(
            defense=spec.defense,
            attack=spec.attack,
            verdict=payload["verdict"],
            detail=payload["detail"] if "detail" in payload else
            f"{len(payload['flipped_pt_pages'])}/{payload['m']} PTs flipped",
        )
        for spec, payload in _run_group(
            "baselines", template_rounds=template_rounds)
    ]
