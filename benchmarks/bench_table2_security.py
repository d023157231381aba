"""Table II — security effectiveness of SoftTRR against the three
kernel-privilege-escalation attacks (Section V).

Regenerates: Memory Spray (3-sided, DDR4 Optiplex 390), CATTmew
(2-sided via SG buffer, DDR3 Optiplex 990) and PThammer (kernel-assisted
page-walk hammer, DDR3 X230), each run against the vanilla kernel (must
flip) and under SoftTRR Δ±6 (must not flip).

The benchmarked operation is one full hammer-vs-SoftTRR round on a
pre-set-up machine — the steady-state cost of the defended system under
active attack.
"""

from conftest import scale

from repro.analysis.security import run_table2
from repro.analysis.tables import render_table2
from repro.attacks.memory_spray import MemorySprayAttack
from repro.config import optiplex_390
from repro.core.profile import SoftTrrParams
from repro.defenses import SoftTrrDefense, boot_kernel
from repro.patterns import round_robin

M = scale(2, 4)
ROUNDS = scale(16_000, 22_000)
REGION = scale(288, 384)


def test_table2_security(benchmark, announce):
    rows = run_table2(m=M, region_pages=REGION, template_rounds=ROUNDS)
    announce("table2_security.txt", render_table2(rows))
    # The headline claims:
    for row in rows:
        assert row.baseline_flipped_pages > 0, \
            f"{row.attack}: the attack must work on the vanilla system"
        assert row.bit_flip_failed, \
            f"{row.attack}: SoftTRR failed to protect"
    # Benchmark: one defended hammer burst in steady state.
    kernel = boot_kernel(optiplex_390())
    attack = MemorySprayAttack(kernel, m=1, region_pages=REGION,
                               template_rounds=ROUNDS)
    attack.setup()
    SoftTrrDefense(SoftTrrParams()).install(kernel)
    target = attack.targets[0]

    burst = round_robin(len(target.aggressor_vaddrs), 400)

    def defended_hammer_burst():
        attack.kit.run(burst, target.aggressor_vaddrs)

    benchmark(defended_hammer_burst)
