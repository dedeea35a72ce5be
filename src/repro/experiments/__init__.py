"""Reproduction experiments.

* :mod:`repro.experiments.catalog` -- every paper figure, ablation and the
  scale-out curve as one table of runs and checked claims: Figure 8
  (E1/E4), Figure 7 (E2), Figure 1 (E3), the asynchrony of the replication
  scheme (E5), the forced-log cost (E7), the replication degree (E8) and
  throughput versus database-tier size (E9); ``python -m repro experiment``.
* :mod:`repro.experiments.fault_sweep` -- E6: correctness under random faults.
* :mod:`repro.experiments.soak` -- E10: sustained open-loop load, online
  spec-checked, with measured flat observability memory.
* :mod:`repro.experiments.reshard` -- online growth of a partitioned data
  tier under load, and a fault campaign aimed at the migration window.

Importing the package loads none of them.
"""
