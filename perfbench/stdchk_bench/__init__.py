"""End-to-end and per-layer benchmark of the stdchk checkpoint store.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the workloads and metrics.
"""
