"""The benchmark's three workloads: cell lists, passes and digests.

Every workload is closed-loop: one pass runs a fixed list of cells one
after another (or across the fleet's worker pool) and the next pass
starts when it ends.  The ``--seed`` of a run picks the cells' inputs
and nothing else.

* ``overhead-mix`` -- Table III/IV overhead cells (vanilla, SoftTRR
  Δ±1 and Δ±6 machines per cell); the seed is the SliceWorkload seed.
* ``attack-mix`` -- baseline-matrix attack cells through the full MMU
  user path; the seed is the machine seed.
* ``fuzz-fleet`` -- rows-leg pattern-fuzz points against the six feed
  defenses, driven through ``repro.fleet.run_fleet``; the seed is the
  campaign's ``fuzz_seed``.
"""

from __future__ import annotations

import dataclasses
import resource
import tempfile
import time
from typing import Callable, Dict, List, Optional

from .stats import canonical_digest, text_digest

#: Overhead cells: the only forking program (Apache, also socket
#: churn), the profile's translation-heavy program (mcf_s) and two
#: memory-bound programs.
OVERHEAD_CELLS = (
    "table4-Apache",
    "table3-mcf_s",
    "table4-stream_Copy",
    "table4-cacheben_read",
)

#: Attack cells: one baseline-matrix cell per defense, PThammer's
#: page-walk hammer and SoftTRR's refresher under attack.  The Table II
#: cells are left out: their cost swings up to 3.7x with the machine
#: seed (templating luck on the large machines), more than any bound.
ATTACK_CELLS = (
    "baselines-vanilla-memory_spray",
    "baselines-catt-cattmew",
    "baselines-cta-memory_spray",
    "baselines-zebram-memory_spray",
    "baselines-anvil-pthammer_spray",
    "baselines-riprh-memory_spray",
    "baselines-alis-memory_spray",
    "baselines-softtrr-memory_spray",
    "baselines-softtrr-pthammer_spray",
)

#: The six defenses that ride the activation feed.
FEED_DEFENSES = ("vanilla", "chiptrr", "para", "misra_gries", "ptmp", "dapper")
FUZZ_POINTS = 50
FLEET_WORKERS = 2

WORKLOADS = ("overhead-mix", "attack-mix", "fuzz-fleet")


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


@dataclasses.dataclass
class PassResult:
    """One pass: host times, per-cell digests and failures."""

    wall_s: float
    cpu_s: float
    first_result_s: float
    #: Per-cell wall times, or the intervals between fleet results.
    cell_s: List[float]
    digests: Dict[str, str]
    #: cell key -> why it failed (error payload, quarantine, invariant).
    errors: Dict[str, str]
    #: Processes that ran cells, and the CPU seconds they used.
    workers: int = 1
    worker_cpu_s: Optional[float] = None

    @property
    def worker_busy_frac(self) -> float:
        busy = self.cpu_s if self.worker_cpu_s is None else self.worker_cpu_s
        return busy / (self.workers * self.wall_s)


class ScenarioWorkload:
    """Registered scenario cells run in this process."""

    def __init__(self, cell_names, seed: int) -> None:
        from repro.scenarios import scenario

        self.specs = []
        for cell in cell_names:
            base = scenario(cell)
            self.specs.append(dataclasses.replace(
                base, params={**base.params, "seed": seed}))

    def run_pass(self, after_cell: Optional[Callable[[], None]] = None
                 ) -> PassResult:
        from repro.scenarios import results_to_json, run_scenario_guarded

        digests: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        cell_s: List[float] = []
        first = None
        cpu0 = cpu_now()
        start = time.perf_counter()
        for spec in self.specs:
            began = time.perf_counter()
            result = run_scenario_guarded(spec)
            done = time.perf_counter()
            cell_s.append(done - began)
            if first is None:
                first = done - start
            key = spec.name
            digests[key] = text_digest(results_to_json([result]))
            problem = _scenario_problem(spec, result.payload)
            if problem:
                errors[key] = problem
            if after_cell is not None:
                after_cell()
        wall = time.perf_counter() - start
        return PassResult(wall, cpu_now() - cpu0, first, cell_s,
                          digests, errors)


def _scenario_problem(spec, payload) -> Optional[str]:
    """Why a scenario payload is wrong, or ``None``."""
    error = payload.get("error")
    if error:
        return f"error payload {error.get('type')}: {error.get('message')}"
    if spec.kind == "attack" and spec.defense == "softtrr" \
            and payload.get("verdict") != "blocked":
        return f"SoftTRR verdict {payload.get('verdict')!r}, not 'blocked'"
    return None


class FleetWorkload:
    """Fuzz points x feed defenses through the fleet supervisor."""

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.fleet import FleetSpec

        self.scratch = scratch
        self.spec = FleetSpec(
            scenarios=tuple(f"point-{i}" for i in range(FUZZ_POINTS)),
            defenses=FEED_DEFENSES,
            runner="fuzz",
            runner_params={"fuzz_seed": seed},
            shards=FLEET_WORKERS,
        )
        self.spec.validate_names()
        self.cells = self.spec.expand()

    @staticmethod
    def key(scenario: str, defense: str) -> str:
        return f"{scenario}/{defense}"

    def write_manifest(self) -> None:
        """Initialise a throwaway result dir (the fleet's set-up work)."""
        from repro.fleet import ResultDir

        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            ResultDir(out).initialise(self.spec, self.cells)

    def run_pass(self) -> PassResult:
        """One fleet run on ``FLEET_WORKERS`` worker processes."""
        from repro.fleet import ResultDir, run_fleet

        stamps: List[float] = []

        def progress(event) -> None:
            if event.get("event") in ("ok", "quarantined"):
                stamps.append(time.perf_counter())

        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            cpu0 = cpu_now()
            kids0 = _cpu(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            run_fleet(self.spec, out, jobs=FLEET_WORKERS, progress=progress)
            wall = time.perf_counter() - start
            cpu = cpu_now() - cpu0
            worker_cpu = _cpu(resource.RUSAGE_CHILDREN) - kids0
            records = ResultDir(out).load_records()
        digests: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        for record in records.values():
            key = self.key(record["scenario"], record["defense"])
            if record.get("status") != "ok":
                errors[key] = f"{record.get('status')}: {record.get('error')}"
                continue
            digests[key] = canonical_digest(record["payload"])
        for cell in self.cells:
            key = self.key(cell.scenario, cell.defense)
            if key not in digests and key not in errors:
                errors[key] = "no record"
        gaps = [b - a for a, b in zip([start] + stamps, stamps)]
        first = stamps[0] - start if stamps else wall
        return PassResult(wall, cpu, first, gaps, digests, errors,
                          workers=FLEET_WORKERS, worker_cpu_s=worker_cpu)

    def run_pass_in_process(self, after_cell=None) -> PassResult:
        """The same cells serially in this process, records appended
        through the fleet's own checkpoint writer (the traced form)."""
        from repro.fleet import ResultDir, run_fleet_cell

        digests: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        cell_s: List[float] = []
        first = None
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            result_dir = ResultDir(out)
            cpu0 = cpu_now()
            start = time.perf_counter()
            result_dir.initialise(self.spec, self.cells)
            with result_dir:
                for cell in self.cells:
                    record = {
                        "cell_id": cell.cell_id, "index": cell.index,
                        "shard": cell.shard, "scenario": cell.scenario,
                        "seed": cell.seed, "defense": cell.defense,
                        "attempts": 1,
                    }
                    key = self.key(cell.scenario, cell.defense)
                    began = time.perf_counter()
                    try:
                        payload = run_fleet_cell(
                            cell.to_dict(), self.spec.runner,
                            self.spec.runner_params)
                    except Exception as exc:  # noqa: BLE001 - cell boundary
                        errors[key] = f"raised {type(exc).__name__}: {exc}"
                        continue
                    record.update(status="ok", payload=payload)
                    result_dir.append_record(record)
                    done = time.perf_counter()
                    cell_s.append(done - began)
                    if first is None:
                        first = done - start
                    digests[key] = canonical_digest(payload)
                    if after_cell is not None:
                        after_cell()
            wall = time.perf_counter() - start
            cpu = cpu_now() - cpu0
        return PassResult(wall, cpu, first or wall, cell_s, digests, errors)


def build(name: str, seed: int, scratch: str):
    """The named workload's cells for ``seed`` (the set-up step)."""
    if name == "overhead-mix":
        return ScenarioWorkload(OVERHEAD_CELLS, seed)
    if name == "attack-mix":
        return ScenarioWorkload(ATTACK_CELLS, seed)
    if name == "fuzz-fleet":
        workload = FleetWorkload(seed, scratch)
        workload.write_manifest()
        return workload
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
