"""Property tests: partitioned deployments under random faults.

Mixed single-shard and cross-shard traffic over ``d >= 2`` partitioned
deployments, with :class:`~repro.campaign.adversarial.RandomFaultPlan` schedules,
must keep the e-Transaction specification -- now judged over each
transaction's participant set -- clean:

* the **etx** stack tolerates the paper's full fault model (minority of
  application servers crash, databases crash and recover, false suspicions),
  so it gets the full plan and the full property check;
* the three **baselines** are checked for *safety* (agreement, validity,
  participant confinement) under database crash/recovery faults -- they are
  not expected to terminate under faults (that is the paper's argument), so
  termination is only enforced on their failure-free runs.
"""

from hypothesis import given, settings, strategies as st
from spec_oracle import violated

from repro import api
from repro.campaign.adversarial import RandomFaultPlan
from repro.workload.generator import ClosedLoop


def _scenario(protocol: str, num_db_servers: int, seed: int) -> api.Scenario:
    return api.Scenario(protocol=protocol, num_db_servers=num_db_servers,
                        num_clients=2, seed=seed, workload="bank",
                        placement="hash", xshard=0.4)


def _expected_delta(request) -> int:
    """Net effect of one committed bank request on the total money supply."""
    amount = request.params["amount"]
    if request.operation == "bank_debit":
        return -amount
    if request.operation == "bank_credit":
        return amount
    return 0  # transfers conserve


def _money_adds_up(system, requests) -> None:
    """Exactly-once accounting: every delivered request applied once.

    Debits/credits move the total by their amount; a transfer -- including a
    cross-shard one, where each shard applies only its half -- moves nothing.
    """
    workload = system.workload.instance
    committed = {}
    for db in system.db_servers.values():
        committed.update(db.store.committed_snapshot())
    expected = sum(workload.initial_data().values()) \
        + sum(_expected_delta(request) for request in requests)
    assert workload.total_money(committed) == expected, \
        "sharded bank traffic must apply each committed request exactly once"


@given(seed=st.integers(min_value=0, max_value=10_000),
       num_db_servers=st.sampled_from([2, 3]))
@settings(max_examples=12, deadline=None)
def test_etx_spec_holds_under_random_faults_with_mixed_shard_traffic(seed, num_db_servers):
    scenario = _scenario("etx", num_db_servers, seed)
    system = api.build(scenario)
    plan = RandomFaultPlan(
        app_servers=scenario.app_server_names,
        db_servers=scenario.db_server_names,
        horizon=1_500.0,
    )
    system.apply_faults(plan.generate(seed))
    requests = []   # what the generator issues, for the money check

    def standard_request(make=system.standard_request):
        requests.append(make())
        return requests[-1]

    system.standard_request = standard_request
    stats = ClosedLoop().run(system, 2)     # two per client
    # Let fail-over and termination traffic drain before judging T.2.
    system.run(until=system.sim.now + 20_000.0)
    assert stats.count == 4, f"seed={seed}: {stats.undelivered} undelivered"
    report = system.check_spec()
    assert report.ok, f"seed={seed}: {report.summary()}"
    _money_adds_up(system, requests)


def _run_under_db_faults(protocol: str, seed: int):
    scenario = _scenario(protocol, 2, seed)
    system = api.build(scenario)
    plan = RandomFaultPlan(
        app_servers=[],  # the baselines' middle tiers are not crash-tolerant
        db_servers=scenario.db_server_names,
        horizon=1_000.0,
        db_crash_probability=0.6,
    )
    system.apply_faults(plan.generate(seed))
    ClosedLoop().run(system, 2)
    system.run(until=system.sim.now + 10_000.0)
    # Safety only: a baseline may block forever on a crashed database (no
    # T.1/T.2); what it must not do is corrupt the shard tier.
    return system.check_spec(check_termination=False)


@given(seed=st.integers(min_value=0, max_value=10_000),
       protocol=st.sampled_from(["2pc", "pb"]))
@settings(max_examples=12, deadline=None)
def test_voting_baselines_safety_holds_under_db_faults(seed, protocol):
    """2PC and primary-backup collect votes before deciding, so agreement,
    validity and participant confinement survive database crash/recovery
    even for cross-shard transactions."""
    report = _run_under_db_faults(protocol, seed)
    assert report.ok, f"seed={seed}: {report.summary()}"


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_unreliable_baseline_confinement_holds_under_db_faults(seed):
    """The one-phase-commit baseline has no atomic commitment across shards:
    a database crash between its per-shard commits may leave a cross-shard
    transaction half-committed (a V.2/A.1 violation -- the paper's argument,
    now visible per shard).  What participant routing must still guarantee is
    confinement (S.1), at-most-once per database (A.2) and validity (V.1)."""
    report = _run_under_db_faults("baseline", seed)
    for always_held in ("S.1", "A.2", "V.1"):
        assert not violated(report, always_held), \
            f"seed={seed}: {report.summary()}"


@given(seed=st.integers(min_value=0, max_value=10_000),
       protocol=st.sampled_from(["baseline", "2pc", "pb", "etx"]))
@settings(max_examples=8, deadline=None)
def test_failure_free_mixed_shard_traffic_is_fully_spec_clean(seed, protocol):
    result = api.run_scenario(_scenario(protocol, 3, seed), requests=2)
    assert result.ok, f"seed={seed}: {result.spec.summary()}"
    commits = sum(db.commits for db in result.statistics.by_database.values())
    assert commits >= result.delivered  # cross-shard commits count per shard
