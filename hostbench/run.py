"""Host-time benchmark of the SoftTRR simulator.

    python3 hostbench/run.py --workload overhead-mix --seed 1 --seconds 35 --trace 0

Run from the repository root.  ``--trace 0`` repeats passes of the
workload for ``--seconds`` and reports the end-to-end metrics (median
pass ``wall_s`` and ``cpu_s``, median ``setup_s`` over several fresh
set-up processes, ``peak_rss_mb``).  ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics.  Every cell's
canonical payload is digested; the run fails on an error payload, a
quarantined cell, a digest that differs between passes or from the
golden digests in ``hostbench/golden.json``, or a traced pass that
does not reproduce the untraced one.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--update-golden`` rewrites ``golden.json`` from one pass of every
workload at each golden seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench import spans, stats, workloads  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
#: The default seed and the held-out seed that golden digests cover.
GOLDEN_SEEDS = (1, 2)
#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Environment knobs that select the simulator's fast paths; the
#: benchmark records them and always runs with the defaults.
KNOBS = ("REPRO_BATCH", "REPRO_DENSE")
#: Telemetry counters summed over every machine of the traced pass.
COUNTERS = (
    "dram.total_activations",
    "engine.total_deposits",
    "actuator.refreshes",
    "kernel.faults_handled",
    "softtrr.refreshes",
    "softtrr.captured_faults",
    "softtrr.ticks",
)
RATIO_COUNTERS = ("tlb.hits", "tlb.misses", "cache.hits", "cache.misses")

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for target in spans.TARGETS:
        units[f"{target.name}.calls"] = "count"
        units[f"{target.name}.self_pct"] = "%"
    units["dram.module.DramModule.hammer_batch.items_per_call"] = "items/call"
    for name in COUNTERS:
        units[name] = "count"
    units["mmu.tlb.hit_ratio"] = "ratio"
    units["mmu.cache.hit_ratio"] = "ratio"
    units["fleet.worker_busy_frac"] = "ratio"
    units["fleet.first_result_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _scratch_dir() -> str:
    """A fresh directory inside the checkout for fleet result dirs."""
    return tempfile.mkdtemp(prefix=".hostbench-", dir=str(ROOT))


def _check_tree() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"hostbench: no simulator sources under {ROOT / 'src'}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Set-up probes, and fleet workers under a spawning start method,
    # import the package afresh.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


# ------------------------------------------------------------ set-up
def measure_setup(name: str, seed: int) -> list:
    """Seconds from a fresh process's start to its first dispatch."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-only", "--workload", name, "--seed", str(seed)],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
            code = probe.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return samples


# ------------------------------------------------------- correctness
def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(name: str, seed: int, passes) -> dict:
    """Failed cells across ``passes``: key -> reason.

    Each pass must match the first pass digest for digest, and at a
    golden seed the golden digests too.
    """
    golden = load_golden().get("seeds", {}).get(str(seed), {}).get(name)
    expected = passes[0].digests
    failed = {}
    for index, result in enumerate(passes):
        for key, reason in result.errors.items():
            failed[f"pass{index}:{key}"] = reason
        for key in set(expected) | set(result.digests):
            if key in result.errors:
                continue
            if result.digests.get(key) != expected.get(key):
                failed[f"pass{index}:{key}"] = "digest differs between passes"
            elif golden is not None and golden.get(key) != result.digests[key]:
                failed[f"pass{index}:{key}"] = "digest differs from golden"
    if golden is not None:
        for key in set(golden) - set(expected):
            failed[f"golden:{key}"] = "golden cell not run"
    return failed


# ---------------------------------------------------------- untraced
def run_untraced(name: str, seed: int, seconds: float, scratch: str) -> dict:
    setup = measure_setup(name, seed)
    workload = workloads.build(name, seed, scratch)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        # Start another pass only if it should end inside the budget.
        if elapsed + elapsed / len(passes) > seconds:
            break
    failed = check(name, seed, passes)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = sum(len(p.digests) + len(p.errors) for p in passes)
    metrics = {
        "wall_s": statistics.median([p.wall_s for p in passes]),
        "cpu_s": statistics.median([p.cpu_s for p in passes]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(own, kids) / 1024.0,
    }
    lines = [
        f"passes {len(passes)}, cells per pass {len(passes[0].digests) + len(passes[0].errors)}",
        _spread_line("wall_s", [p.wall_s for p in passes], "s"),
        _spread_line("cpu_s", [p.cpu_s for p in passes], "s"),
        _spread_line("setup_s", setup, "s"),
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        f"fail_frac    {len(failed) / attempted:.4f} ratio ({len(failed)}/{attempted})",
        _tail_line(name, [s for p in passes for s in p.cell_s]),
    ]
    return {"metrics": metrics, "units": END_TO_END, "failed": failed,
            "attempted": attempted, "lines": lines}


def _spread_line(label, values, unit) -> str:
    lo, hi = stats.quantile(values, 0.25), stats.quantile(values, 0.75)
    return (f"{label:12s} {statistics.median(values):.4f} {unit} "
            f"(median of {len(values)}; quartiles {lo:.4f}..{hi:.4f})")


def _tail_line(name, values) -> str:
    what = ("result interval" if name == "fuzz-fleet" else "cell wall")
    pct, value, n = stats.tail_percentile(values)
    tail = (f", p{pct:g} {value * 1e3:.1f} ms" if pct is not None
            else ", no percentile has 10 samples beyond it")
    return (f"{what:12s} median {statistics.median(values) * 1e3:.1f} ms"
            f"{tail} (n={n})")


# ------------------------------------------------------------ traced
def run_traced(name: str, seed: int, scratch: str) -> dict:
    from repro.machine import Machine

    workload = workloads.build(name, seed, scratch)
    untraced = workload.run_pass()
    recorder = spans.SpanRecorder()
    totals = dict.fromkeys(COUNTERS + RATIO_COUNTERS, 0)
    built = []

    def capture(assemble):
        def assemble_and_capture(self, *args, **kwargs):
            assemble(self, *args, **kwargs)
            built.append(self)
        return assemble_and_capture

    def drain() -> None:
        for machine in built:
            flat = machine.telemetry.as_flat_dict()
            for key in totals:
                totals[key] += flat.get(key, 0)
        built.clear()

    handle = spans.install(recorder)
    try:
        handle.patch(Machine, "_assemble", capture(Machine._assemble))
        traced_pass = getattr(workload, "run_pass_in_process",
                              workload.run_pass)
        traced = traced_pass(after_cell=drain)
    finally:
        handle.remove()
    failed = check(name, seed, [untraced, traced])

    values = {}
    missing = []
    for target in spans.TARGETS:
        calls = recorder.calls.get(target.name, 0)
        values[f"{target.name}.calls"] = calls
        values[f"{target.name}.self_pct"] = (
            100.0 * recorder.self_s.get(target.name, 0.0) / traced.wall_s)
        if calls == 0 and name in target.heavy_on:
            missing.append(target.name)
    batch = "dram.module.DramModule.hammer_batch"
    values[f"{batch}.items_per_call"] = (
        recorder.items.get(batch, 0) / max(1, recorder.calls.get(batch, 0)))
    for key in COUNTERS:
        values[key] = totals[key]
    values["mmu.tlb.hit_ratio"] = _ratio(totals["tlb.hits"], totals["tlb.misses"])
    values["mmu.cache.hit_ratio"] = _ratio(totals["cache.hits"],
                                           totals["cache.misses"])
    values["fleet.worker_busy_frac"] = untraced.worker_busy_frac
    values["fleet.first_result_s"] = untraced.first_result_s
    overhead = traced.wall_s / untraced.wall_s
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_ratio"] = overhead

    units = per_layer_units()
    lines = [f"tracing overhead {overhead:.2f}x (traced {traced.wall_s:.3f} s"
             f" / untraced {untraced.wall_s:.3f} s)"]
    ranked = sorted(spans.TARGETS,
                    key=lambda t: -values[f"{t.name}.self_pct"])
    for target in ranked:
        calls = values[f"{target.name}.calls"]
        pct = values[f"{target.name}.self_pct"]
        status = "missing" if target.name in missing else (
            f"{calls} calls, self {pct * traced.wall_s / 100:.3f} s"
            f" = {pct:.1f}%")
        lines.append(f"  {target.name:58s} {status}")
    for key in units:
        if not key.endswith((".calls", ".self_pct")):
            lines.append(f"  {key:58s} {values[key]:.6g} {units[key]}")
    if missing:
        lines.append("missing (zero calls on a heavy-on workload): "
                     + ", ".join(missing))
    attempted = len(untraced.digests) + len(untraced.errors) \
        + len(traced.digests) + len(traced.errors)
    return {"metrics": values, "units": units, "failed": failed,
            "attempted": attempted, "lines": lines}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# -------------------------------------------------------------- main
def update_golden(scratch: str) -> None:
    golden = {"seeds": {}}
    for seed in GOLDEN_SEEDS:
        per_workload = {}
        for name in workloads.WORKLOADS:
            result = workloads.build(name, seed, scratch).run_pass()
            if result.errors:
                raise SystemExit(f"{name} seed {seed}: {result.errors}")
            per_workload[name] = dict(sorted(result.digests.items()))
            print(f"{name} seed {seed}: {len(result.digests)} cells",
                  flush=True)
        golden["seeds"][str(seed)] = per_workload
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.update_golden and args.workload is None:
        parser.error("--workload is required")

    knobs = {knob: os.environ.pop(knob, None) for knob in KNOBS}
    _check_tree()
    scratch = _scratch_dir()
    try:
        if args.setup_only:
            # Probe body: imports, registry, cells and manifest, then report.
            workloads.build(args.workload, args.seed, scratch)
            print("ready", flush=True)
            return 0
        if args.update_golden:
            update_golden(scratch)
            return 0
        if args.trace:
            outcome = run_traced(args.workload, args.seed, scratch)
        else:
            outcome = run_untraced(args.workload, args.seed, args.seconds,
                                   scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"hostbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v if v is not None else 'default'}"
                     for k, v in knobs.items()))
    for line in outcome["lines"]:
        print(line)
    for key, reason in sorted(outcome["failed"].items()):
        print(f"FAILED {key}: {reason}")
    failed = len(outcome["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {key: {"value": value, "unit": outcome["units"][key]}
                    for key, value in outcome["metrics"].items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
