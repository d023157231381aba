"""Host-time benchmark of the simulator: workloads, tracing and statistics.

Run it with ``python3 hostbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``hostbench/README.md`` for the workloads and metrics.
"""
