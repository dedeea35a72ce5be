"""Property-based end-to-end tests: the specification holds under random faults.

These are the heaviest tests in the suite: each example builds a complete
deployment, injects a randomly generated (but assumption-respecting) fault
schedule, runs one request to completion and checks every e-Transaction
property over the trace.
"""

from hypothesis import given, settings, strategies as st

from repro import api
from repro.core import Request
from repro.core.deployment import REGISTER_CONSENSUS, REGISTER_LOCAL
from repro.campaign.adversarial import RandomFaultPlan


def bank_logic(request):
    def logic(view):
        balance = view.read("balance", 0)
        view.write("balance", balance - request.params.get("amount", 0))
        return {"new_balance": balance - request.params.get("amount", 0)}

    return logic


class PayWorkload:
    """One balance of 100; a ``pay`` request debits its ``amount``."""

    def initial_data(self):
        return {"balance": 100}

    def business_logic(self, request):
        return bank_logic(request)


def run_scenario(seed: int, register_mode: str, num_db_servers: int,
                 with_client_crash: bool) -> None:
    scenario = api.Scenario(
        num_app_servers=3,
        num_db_servers=num_db_servers,
        register_mode=register_mode,
        seed=seed,
        detection_delay=10.0,
    )
    deployment = api.build(scenario, workload=PayWorkload())
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
    # Give in-flight terminations time to drain so T.2 can be judged fairly.
    deployment.run(until=deployment.sim.now + 20_000.0)

    client_crashed = deployment.trace.count("crash", "c1") > 0
    report = deployment.check_spec(check_termination=not client_crashed)
    assert report.ok, f"seed={seed}: {report.summary()}"
    if not client_crashed:
        assert issued.delivered, f"seed={seed}: request never delivered"
    # Exactly-once effect on the data: the balance is 70 after delivery, and
    # either 70 or 100 (at-most-once) if the client crashed mid-request.
    for db in deployment.db_servers.values():
        balance = db.committed_value("balance")
        if issued.delivered:
            assert balance == 70, f"seed={seed}: balance {balance} after a delivered request"
        else:
            assert balance in (70, 100), f"seed={seed}: balance {balance}"


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_spec_holds_under_random_faults_consensus_registers(seed):
    run_scenario(seed, REGISTER_CONSENSUS, num_db_servers=1, with_client_crash=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_spec_holds_under_random_faults_two_databases(seed):
    run_scenario(seed, REGISTER_CONSENSUS, num_db_servers=2, with_client_crash=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_spec_holds_under_random_faults_local_registers(seed):
    run_scenario(seed, REGISTER_LOCAL, num_db_servers=1, with_client_crash=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_at_most_once_when_client_may_crash(seed):
    run_scenario(seed, REGISTER_CONSENSUS, num_db_servers=1, with_client_crash=True)
