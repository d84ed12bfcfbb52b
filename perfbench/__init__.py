"""Benchmark of the wcs package: three closed-loop workloads and a traced run.

Entry point: ``python3 perfbench/run.py --workload <certify|recover|replay>
--seed <n> --seconds <s> --trace <0|1>``. See ``perfbench/README.md``.
"""
