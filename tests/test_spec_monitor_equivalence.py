"""Online/post-hoc equivalence: SpecMonitor verdicts == check_run verdicts.

The online :class:`~repro.core.spec.SpecMonitor` (fed by the trace event bus)
must reproduce the verdict of the post-hoc oracle :func:`spec_oracle.check_run`
byte-for-byte -- the same checked properties, the same violations, in the
same order -- across the random-fault-plan property corpus of all four
protocols.  The runs here keep ``full`` retention so the post-hoc reference
can be computed at all; the violating runs (the unreliable baseline under
database faults) are the interesting half of the corpus, because they
exercise the violation-reporting paths, not just the clean ones.
"""

from hypothesis import given, settings, strategies as st
from spec_oracle import check_run

from repro import api
from repro.core import Request
from repro.core.deployment import REGISTER_CONSENSUS, REGISTER_LOCAL
from repro.campaign.adversarial import RandomFaultPlan
from repro.workload.generator import ClosedLoop


def assert_reports_identical(deployment, check_termination: bool, context: str) -> None:
    """The monitor's report must equal the post-hoc reference exactly."""
    online = deployment.spec_monitor.report(check_termination=check_termination)
    reference = check_run(deployment.trace, deployment.scenario.db_server_names,
                          deployment.scenario.client_names,
                          check_termination=check_termination)
    assert online.checked_properties == reference.checked_properties, context
    online_violations = [(v.property_name, v.description) for v in online.violations]
    reference_violations = [(v.property_name, v.description)
                            for v in reference.violations]
    assert online_violations == reference_violations, (
        f"{context}: online monitor and post-hoc checker disagree\n"
        f"online:   {online_violations}\npost-hoc: {reference_violations}")


# ------------------------------------------------------------------- etx


def run_etx_scenario(seed: int, register_mode: str, num_db_servers: int,
                     with_client_crash: bool) -> None:
    scenario = api.Scenario(
        num_app_servers=3,
        num_db_servers=num_db_servers,
        register_mode=register_mode,
        seed=seed,
        detection_delay=10.0,
    )
    deployment = api.build(scenario, initial_data={"balance": 100})
    plan = RandomFaultPlan(
        app_servers=scenario.app_server_names,
        db_servers=scenario.db_server_names,
        client="c1" if with_client_crash else None,
        horizon=1_500.0,
        client_crash_probability=0.5 if with_client_crash else 0.0,
    )
    deployment.apply_faults(plan.generate(seed))
    issued = deployment.issue(Request("pay", {"amount": 30}))
    deployment.sim.run_until(lambda: issued.delivered, until=300_000.0)
    deployment.run(until=deployment.sim.now + 20_000.0)
    client_crashed = deployment.trace.count("crash", "c1") > 0
    assert_reports_identical(deployment, check_termination=not client_crashed,
                             context=f"etx seed={seed}")
    # The other termination flag must agree too (a mid-run report is legal).
    assert_reports_identical(deployment, check_termination=client_crashed,
                             context=f"etx seed={seed} (flipped termination)")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_etx_consensus_registers_verdicts_identical(seed):
    run_etx_scenario(seed, REGISTER_CONSENSUS, num_db_servers=1,
                     with_client_crash=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_etx_two_databases_verdicts_identical(seed):
    run_etx_scenario(seed, REGISTER_CONSENSUS, num_db_servers=2,
                     with_client_crash=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_etx_local_registers_verdicts_identical(seed):
    run_etx_scenario(seed, REGISTER_LOCAL, num_db_servers=1,
                     with_client_crash=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_etx_client_crash_verdicts_identical(seed):
    run_etx_scenario(seed, REGISTER_CONSENSUS, num_db_servers=1,
                     with_client_crash=True)


# --------------------------------------------------- sharded, all protocols


def _scenario(protocol: str, num_db_servers: int, seed: int) -> api.Scenario:
    return api.Scenario(protocol=protocol, num_db_servers=num_db_servers,
                        num_clients=2, seed=seed, workload="bank",
                        placement="hash", xshard=0.4)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_etx_mixed_shard_traffic_verdicts_identical(seed):
    scenario = _scenario("etx", 2, seed)
    system = api.build(scenario)
    plan = RandomFaultPlan(app_servers=scenario.app_server_names,
                           db_servers=scenario.db_server_names,
                           horizon=1_500.0)
    system.apply_faults(plan.generate(seed))
    ClosedLoop().run(system, 4)
    system.run(until=system.sim.now + 20_000.0)
    assert_reports_identical(system, check_termination=True,
                             context=f"etx sharded seed={seed}")


@given(seed=st.integers(min_value=0, max_value=10_000),
       protocol=st.sampled_from(["baseline", "2pc", "pb"]))
@settings(max_examples=15, deadline=None)
def test_baselines_under_db_faults_verdicts_identical(seed, protocol):
    """The half-committed cross-shard runs of the unreliable baseline are the
    violating part of the corpus: the monitor must report exactly the same
    A.1/V.2 (and any other) violations as the post-hoc checker."""
    scenario = _scenario(protocol, 2, seed)
    system = api.build(scenario)
    plan = RandomFaultPlan(app_servers=[],
                           db_servers=scenario.db_server_names,
                           horizon=1_000.0,
                           db_crash_probability=0.6)
    system.apply_faults(plan.generate(seed))
    ClosedLoop().run(system, 2)
    system.run(until=system.sim.now + 10_000.0)
    assert_reports_identical(system, check_termination=False,
                             context=f"{protocol} db-faults seed={seed}")


@given(seed=st.integers(min_value=0, max_value=10_000),
       protocol=st.sampled_from(["baseline", "2pc", "pb", "etx"]))
@settings(max_examples=8, deadline=None)
def test_failure_free_runs_verdicts_identical(seed, protocol):
    scenario = _scenario(protocol, 3, seed)
    system = api.build(scenario)
    ClosedLoop().run(system, 2)
    system.run(until=system.sim.now + 5_000.0)
    assert_reports_identical(system, check_termination=True,
                             context=f"{protocol} failure-free seed={seed}")


def test_monitor_report_is_repeatable_and_pure():
    """report() is a pure function of the accumulated state: asking twice
    (and with different termination flags in between) changes nothing."""
    system = api.build(_scenario("etx", 2, seed=7))
    ClosedLoop().run(system, 3)
    system.run(until=system.sim.now + 5_000.0)
    first = system.spec_monitor.report()
    system.spec_monitor.report(check_termination=False)
    second = system.spec_monitor.report()
    assert [(v.property_name, v.description) for v in first.violations] == \
        [(v.property_name, v.description) for v in second.violations]
    assert first.checked_properties == second.checked_properties
    assert_reports_identical(system, check_termination=True,
                             context="repeatability")
