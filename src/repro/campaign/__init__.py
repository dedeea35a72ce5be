"""Crucible: adversarial fault-campaign engine.

The paper's e-Transaction guarantees quantify over *every* failure schedule;
random sampling (:class:`~repro.campaign.adversarial.RandomFaultPlan`, the
fault sweep's schedules) barely scratches that space.  This package searches
it adversarially instead:

* :class:`~repro.campaign.windows.FaultWindowObserver` subscribes to the
  trace event bus and records each transaction's protocol phase as it
  changes (executing / voting / deciding / terminating), turning a probe run
  into a list of timestamped *injection windows* -- the phase boundaries the
  paper's proofs hinge on.
* :class:`~repro.campaign.adversarial.AdversarialFaultPlan` aims crashes,
  partitions and false suspicions at those windows (instead of uniformly at
  the clock, as :class:`~repro.campaign.adversarial.RandomFaultPlan` does)
  and perturbs known schedules with mutation operators.
* :func:`~repro.campaign.runner.run_campaign` drives seeded generations of
  schedules through the sweep executor's worker pool, spec-checking each run
  online and ranking near-misses by a progress metric (in-doubt dwell time,
  unresolved monitor state, undelivered load).
* :mod:`~repro.campaign.shrink` delta-debugs any violating schedule down to a
  minimal one that still violates, and
  :mod:`~repro.campaign.artifacts` serialises it as a replayable
  counterexample (a single runnable scenario DSN plus expected violations)
  for the permanent regression corpus under ``tests/corpus/``.
"""

from repro.campaign.adversarial import (
    AdversarialFaultPlan,
    FaultAtom,
    RandomFaultPlan,
    atoms_to_specs,
)
from repro.campaign.artifacts import Counterexample, ReplayResult, replay, write_sidecar
from repro.campaign.runner import (
    CampaignBudget,
    CampaignReport,
    EvaluatedRun,
    probe_windows,
    run_campaign,
)
from repro.campaign.shrink import ShrinkResult, shrink_sequence
from repro.campaign.windows import (
    PHASE_DECIDING,
    PHASE_EXECUTING,
    PHASE_TERMINATING,
    PHASE_VOTING,
    FaultWindowObserver,
    PhaseTransition,
)

__all__ = [
    "AdversarialFaultPlan",
    "FaultAtom",
    "RandomFaultPlan",
    "atoms_to_specs",
    "Counterexample",
    "ReplayResult",
    "replay",
    "write_sidecar",
    "CampaignBudget",
    "CampaignReport",
    "EvaluatedRun",
    "probe_windows",
    "run_campaign",
    "ShrinkResult",
    "shrink_sequence",
    "FaultWindowObserver",
    "PhaseTransition",
    "PHASE_EXECUTING",
    "PHASE_VOTING",
    "PHASE_DECIDING",
    "PHASE_TERMINATING",
]
