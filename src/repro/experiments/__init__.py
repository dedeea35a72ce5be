"""Reproduction experiments.

* :mod:`repro.experiments.catalog` -- every paper figure and experiment
  (E1-E9, E11) as one table of runs and checked claims; ``python -m repro
  experiment``.
* :mod:`repro.experiments.soak` -- E10: sustained open-loop load, online
  spec-checked, with measured flat observability memory.

Importing the package loads neither.
"""
