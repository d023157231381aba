"""Extra experiment 3 — the offline profile (Section IV-E).

Sweeps the ``threshold = tRC x #ACT`` arithmetic and validates the
safety boundary empirically: configurations whose protection window
stays below the DRAM's time-to-first-flip stop a 2-sided hammer on
the real machine model; a deliberately out-of-spec window (timer far
larger than the threshold) lets flips through — demonstrating that the
1 ms / count_limit=2 choice is not arbitrary.

The benchmarked operation is the profile derivation itself.
"""

from conftest import scale

from repro.analysis.tables import render_table
from repro.attacks.memory_spray import MemorySprayAttack
from repro.clock import NS_PER_MS
from repro.config import optiplex_990
from repro.core.profile import OfflineProfile, SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.defenses import boot_kernel
from repro.dram.timing import DDR3_TIMINGS, DDR4_TIMINGS

ROUNDS = scale(16_000, 22_000)


def run_attack_with_params(params: SoftTrrParams) -> int:
    """Flipped-L1PT count for one memory-spray run under ``params``."""
    kernel = boot_kernel(optiplex_990())
    attack = MemorySprayAttack(kernel, m=1, region_pages=288,
                               template_rounds=ROUNDS,
                               pattern_override="double_sided")
    attack.setup()
    kernel.load_module("softtrr", SoftTrr(params, force_unsafe=True))
    kernel.clock.advance(2 * params.timer_inr_ns)
    kernel.dispatch_timers()
    outcome = attack.run(hammer_ns_per_victim=8_000_000)
    return len(outcome.flipped_pt_pages)


def test_offline_profile_sweep(benchmark, announce):
    rows = []
    for name, timings in (("DDR3", DDR3_TIMINGS), ("DDR4", DDR4_TIMINGS)):
        profile = OfflineProfile(timings)
        params = profile.derive()
        rows.append([
            name, timings.t_rc_ns, profile.act_to_first_flip,
            f"{profile.threshold_ns() / NS_PER_MS:.2f} ms",
            f"{params.timer_inr_ns / NS_PER_MS:.2f} ms",
            params.count_limit,
            "safe" if profile.is_safe(params) else "UNSAFE",
        ])
    announce("extra_profile.txt", render_table(
        ["Module", "tRC (ns)", "#ACT", "threshold", "timer_inr",
         "count_limit", "verdict"],
        rows,
        title="Offline profile: threshold = tRC x #ACT (Section IV-E)"))
    # Empirical boundary check on the DDR3 attack machine:
    derived = OfflineProfile(DDR3_TIMINGS).derive()
    assert run_attack_with_params(derived) == 0, \
        "the derived configuration must protect"
    lax = SoftTrrParams(timer_inr_ns=6 * NS_PER_MS, count_limit=2)
    assert not OfflineProfile(DDR3_TIMINGS).is_safe(lax)
    assert run_attack_with_params(lax) > 0, \
        "an out-of-spec window must demonstrably fail"

    benchmark(lambda: OfflineProfile(DDR3_TIMINGS).derive())
