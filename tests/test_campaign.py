"""Tests for the adversarial fault-campaign engine.

Covers the window observer (live phases off the event bus), the adversarial
plan (window targeting, assumption envelope, mutation operators), the
campaign runner (violations found and shrunk for the baselines, a clean pass
for etx) and artifact replay.
"""

import random

import pytest

from repro import api
from repro.campaign import (
    PHASE_DECIDING,
    PHASE_EXECUTING,
    PHASE_TERMINATING,
    PHASE_VOTING,
    AdversarialFaultPlan,
    CampaignBudget,
    Counterexample,
    FaultWindowObserver,
    atoms_to_specs,
    probe_windows,
    replay,
    run_campaign,
)
from repro.campaign.adversarial import ATOM_CRASH

ETX_DSN = "etx://a3.d1.c1?workload=bank&timing=paper&seed=3&detect=10"
TWOPC_DSN = "2pc://a1.d1.c1?workload=bank&timing=paper&seed=3"
BASELINE_DSN = "baseline://a1.d1.c1?workload=bank&timing=paper&seed=3"

SMALL = dict(max_runs=24, population=8, stop_after=2, shrink_checks=40,
             horizon=60_000.0, settle=10_000.0)


# ----------------------------------------------------------------- observer


def test_window_observer_tracks_phases_of_a_clean_run():
    system = api.build(api.Scenario.from_dsn(ETX_DSN))
    observer = FaultWindowObserver.attach(system.trace)
    issued = system.run_request(system.standard_request())
    assert issued.delivered
    system.run(until=system.sim.now + 5_000.0)
    phases = {t.phase for t in observer.transitions}
    assert {PHASE_EXECUTING, PHASE_VOTING, PHASE_DECIDING,
            PHASE_TERMINATING} <= phases
    times = [t.time for t in observer.transitions]
    assert times == sorted(times)
    # The terminated transaction's live phase has been retired.
    assert observer.in_flight == 0
    assert observer.completed >= 1
    observer.detach()


def test_window_observer_exposes_the_live_phase_mid_run():
    system = api.build(api.Scenario.from_dsn(ETX_DSN))
    observer = FaultWindowObserver.attach(system.trace)
    issued = system.issue(system.standard_request())
    request_id = issued.request.request_id
    # Run until the result is computed but (long) before cleanup finishes.
    system.sim.run_until(lambda: observer.phase_of(request_id) is not None,
                         until=10_000.0)
    assert observer.phase_of(request_id) == PHASE_EXECUTING
    system.sim.run_until(
        lambda: observer.phase_of(request_id) in (PHASE_DECIDING,
                                                  PHASE_TERMINATING, None),
        until=300_000.0)
    assert observer.completed or observer.in_flight


def test_window_observer_retires_protocols_without_terminate_events():
    """The one-phase baseline never emits as_terminate; delivery retires."""
    system = api.build(api.Scenario.from_dsn(BASELINE_DSN))
    observer = FaultWindowObserver.attach(system.trace)
    for _ in range(3):
        assert system.run_request(system.standard_request()).delivered
    system.run(until=system.sim.now + 5_000.0)
    assert observer.in_flight == 0
    assert observer.completed == 3


def test_probe_windows_returns_transitions_without_faults():
    windows = probe_windows(api.Scenario.from_dsn(TWOPC_DSN),
                            horizon=60_000.0, settle=5_000.0)
    assert windows
    assert {t.phase for t in windows} >= {PHASE_EXECUTING, PHASE_VOTING,
                                          PHASE_DECIDING}


# --------------------------------------------------------------------- plan


def make_plan(**overrides):
    scenario = api.Scenario.from_dsn(ETX_DSN)
    windows = probe_windows(scenario, horizon=60_000.0, settle=5_000.0)
    return AdversarialFaultPlan.for_scenario(scenario, anchors=windows,
                                             **overrides)


def test_plan_sampling_is_deterministic_per_seed():
    plan = make_plan()
    first = [plan.sample(random.Random(7)) for _ in range(5)]
    second = [plan.sample(random.Random(7)) for _ in range(5)]
    assert first == second


def test_plan_targets_the_recorded_windows():
    plan = make_plan()
    window_times = sorted(t.time for t in plan.anchors)
    rng = random.Random(1)
    for _ in range(50):
        for atom in plan.sample(rng):
            # Every sampled time sits within jitter of some recorded window.
            assert any(abs(atom.time - t) <= plan.jitter + 1e-9
                       or (t <= plan.jitter and atom.time == 0.0)
                       for t in window_times)


def test_plan_respects_the_crash_budget():
    plan = make_plan(max_atoms=6)
    assert plan.max_app_crashes == 1  # minority of 3
    rng = random.Random(2)
    for _ in range(100):
        atoms = plan.sample(rng)
        crashes = [a for a in atoms if a.kind == ATOM_CRASH]
        assert len(crashes) <= 1


def test_mutations_stay_inside_the_envelope():
    plan = make_plan(max_atoms=5)
    rng = random.Random(3)
    atoms = plan.sample(rng)
    for _ in range(200):
        atoms = plan.mutate(atoms, rng)
        assert atoms, "mutation must never produce an empty schedule"
        crashes = [a for a in atoms if a.kind == ATOM_CRASH]
        assert len(crashes) <= plan.max_app_crashes
        assert all(a.time >= 0 for a in atoms)


def test_partition_atoms_lower_to_partition_plus_heal():
    plan = make_plan()
    rng = random.Random(4)
    for _ in range(50):
        atoms = plan.sample(rng)
        specs = atoms_to_specs(atoms)
        partitions = sum(s.kind == "partition" for s in specs)
        heals = sum(s.kind == "heal" for s in specs)
        assert partitions == heals, "every partition window carries its heal"
        times = [s.time for s in specs]
        assert times == sorted(times)


def test_etx_crash_budget_is_the_exact_minority():
    """Crashing a majority of a small etx tier would fake a violation."""
    for app_servers, allowed in ((1, 0), (2, 0), (3, 1), (5, 2)):
        scenario = api.Scenario(protocol="etx", num_app_servers=app_servers)
        plan = AdversarialFaultPlan.for_scenario(scenario)
        assert plan.max_app_crashes == allowed
    # The unreplicated baselines get the same one-crash hardware budget --
    # exceeding their (zero) tolerance is the point of the comparison.
    for protocol in ("baseline", "2pc", "pb"):
        scenario = api.Scenario(protocol=protocol)
        assert AdversarialFaultPlan.for_scenario(scenario).max_app_crashes == 1


def test_campaign_budget_rejects_degenerate_values():
    with pytest.raises(ValueError, match="stop_after"):
        CampaignBudget(stop_after=0)
    with pytest.raises(ValueError, match="max_runs"):
        CampaignBudget(max_runs=0)
    with pytest.raises(ValueError, match="survivors"):
        CampaignBudget(survivors=0)


def test_artifacts_missing_required_keys_fail_cleanly():
    with pytest.raises(ValueError, match="missing required"):
        Counterexample.from_json({"schema": 1, "kind": "certificate"})
    with pytest.raises(ValueError, match="schema"):
        Counterexample.from_json({"kind": "certificate", "dsn": ETX_DSN})


def test_false_suspicion_only_offered_where_injectable():
    etx_plan = make_plan()
    assert etx_plan.allow_false_suspicion
    twopc = api.Scenario.from_dsn(TWOPC_DSN)
    twopc_plan = AdversarialFaultPlan.for_scenario(twopc)
    assert not twopc_plan.allow_false_suspicion


# ------------------------------------------------------------------ campaign


def test_campaign_finds_and_shrinks_a_baseline_violation():
    report = run_campaign(BASELINE_DSN, budget=CampaignBudget(**SMALL), seed=1)
    assert report.counterexamples, "the unreliable baseline must violate"
    for example in report.counterexamples:
        assert example.kind == "violation"
        assert example.violations
        assert len(example.scenario().faults) <= 4
        assert replay(example).matches


def test_campaign_finds_the_2pc_blocking_counterexample():
    report = run_campaign(TWOPC_DSN, budget=CampaignBudget(**SMALL), seed=1)
    assert report.counterexamples
    signatures = {tuple(e.provenance["signature"])
                  for e in report.counterexamples}
    assert any("T.2" in signature for signature in signatures), \
        "a crashed coordinator must leave a database blocked in doubt (T.2)"
    for example in report.counterexamples:
        assert len(example.scenario().faults) <= 4
        assert replay(example).matches


def test_campaign_certifies_etx_clean_within_the_same_budget():
    report = run_campaign(ETX_DSN, budget=CampaignBudget(**SMALL), seed=1)
    assert report.clean, (
        "etx violated under an assumption-respecting schedule: "
        + "; ".join(v for e in report.counterexamples for v in e.violations))
    assert report.runs == SMALL["max_runs"]
    assert report.certificates
    for certificate in report.certificates:
        assert certificate.kind == "certificate"
        assert not certificate.violations
        assert replay(certificate).matches


def test_campaign_artifacts_round_trip_through_json(tmp_path):
    report = run_campaign(BASELINE_DSN,
                          budget=CampaignBudget(max_runs=8, population=8,
                                                stop_after=1, shrink_checks=20,
                                                horizon=60_000.0,
                                                settle=10_000.0),
                          seed=1)
    example = report.counterexamples[0]
    path = str(tmp_path / "example.json")
    example.save(path)
    loaded = Counterexample.load(path)
    assert loaded == example
    assert replay(path).matches


def test_artifacts_with_relative_sidecars_replay_from_anywhere(tmp_path):
    from repro.campaign import write_sidecar

    scenario = api.Scenario.from_dsn(ETX_DSN).with_(
        faults=api.faults_from_text("partition@250:c1,heal@300"))
    out = tmp_path / "run1"
    out.mkdir()
    # A relative sidecar reference next to the artifact, the natural layout.
    dsn = write_sidecar(scenario, str(out / "schedule.faults.json"))
    relative_dsn = dsn.replace(str(out) + "/", "")
    assert "faults=@schedule.faults.json" in relative_dsn
    example = Counterexample(dsn=relative_dsn, kind="certificate",
                             horizon=60_000.0, settle=5_000.0)
    path = example.save(str(out / "artifact.json"))
    # Replaying by path works regardless of the process CWD.
    assert replay(path).matches


def test_artifact_violations_must_be_a_list_of_strings():
    with pytest.raises(ValueError, match="list of violation strings"):
        Counterexample.from_json({"schema": 1, "kind": "violation",
                                  "dsn": ETX_DSN,
                                  "violations": "[T.1] not a list"})


def test_certificate_artifacts_reject_recorded_violations():
    with pytest.raises(ValueError, match="zero violations"):
        Counterexample(dsn=ETX_DSN, kind="certificate", violations=("[T.1] x",))
    with pytest.raises(ValueError, match="expected violations"):
        Counterexample(dsn=ETX_DSN, kind="violation", violations=())
    with pytest.raises(ValueError, match="artifact kind"):
        Counterexample(dsn=ETX_DSN, kind="anecdote")
