"""Tests for the protocol-driver registry and the unified run facade.

The smoke test parametrizes over :func:`repro.api.registered_protocols`, so
any protocol registered later is automatically held to the same bar: one
failure-free request must execute end-to-end and satisfy the e-Transaction
specification.
"""

import pytest

from repro import api


# ------------------------------------------------------------ registry smoke


@pytest.mark.parametrize("protocol", api.registered_protocols())
def test_every_registered_protocol_passes_the_smoke_scenario(protocol):
    """One request, failure-free: delivered and ``SpecReport.ok``."""
    result = api.run_scenario(api.Scenario(protocol=protocol, workload="bank"))
    assert result.delivered == result.requested == 1
    assert result.spec.ok, result.spec.summary()
    assert result.ok


@pytest.mark.parametrize("protocol", api.registered_protocols())
def test_every_registered_protocol_builds_from_its_scheme(protocol):
    system = api.build(api.Scenario.from_dsn(f"{protocol}://"))
    assert system.scenario.protocol == protocol
    issued = system.run_request(system.standard_request())
    assert issued.delivered


def test_unknown_protocol_is_rejected_with_known_names():
    with pytest.raises(api.ScenarioError):
        api.get_protocol("carrier-pigeon")


def test_custom_protocols_can_be_registered():
    from repro.core import EtxDeployment

    class EtxTwin(api.ProtocolDriver):
        name = "etx-twin"
        deployment_class = EtxDeployment

    api.register_protocol("etx-twin", EtxTwin())
    try:
        assert "etx-twin" in api.registered_protocols()
        result = api.run_scenario("etx-twin://d1.c1")
        assert result.ok
        assert result.scenario.num_app_servers == 3  # the deployment class's default
    finally:
        from repro.api import drivers, scenario
        drivers._REGISTRY.pop("etx-twin", None)
        scenario._SCHEME_ALIASES.pop("etx-twin", None)
        scenario._DEFAULT_APP_SERVERS.pop("etx-twin", None)


def test_pb_rejects_a_single_app_server():
    with pytest.raises(api.ScenarioError):
        api.build(api.Scenario(protocol="pb", num_app_servers=1))


# -------------------------------------------------------------- the facade


def test_running_system_exposes_the_uniform_surface():
    system = api.build(api.Scenario.from_dsn("etx://a3.d1.c1"))
    for attribute in ("issue", "run", "run_request", "apply_faults",
                      "check_spec", "stats", "standard_request"):
        assert hasattr(system, attribute)
    # delegation to the wrapped deployment keeps existing idioms working
    assert set(system.db_servers) == {"d1"}
    assert system.sim is system.deployment.sim
    assert system.trace is system.deployment.trace


def test_scenario_faults_are_applied_at_build_time():
    system = api.build(api.Scenario.from_dsn(
        "etx://a3.d1.c1?detect=10&timing=paper&workload=bank&fault=crash@244:a1"))
    issued = system.run_request(system.standard_request())
    assert issued.delivered
    assert system.trace.count("crash", "a1") == 1
    # a backup answered on behalf of the crashed primary
    answered = {event.process for event in system.trace.select("as_result_sent")}
    assert answered - {"a1"}


def test_build_accepts_workload_and_timing_overrides():
    from repro.workload.bank import BankWorkload

    bank = BankWorkload(num_accounts=1, initial_balance=77)
    system = api.build(api.Scenario(protocol="baseline"), workload=bank)
    issued = system.run_request(bank.debit(0, 7))
    assert issued.delivered
    assert system.db_servers["d1"].committed_value("account:0") == 70


def test_run_scenario_accepts_dsn_strings_and_reports():
    result = api.run_scenario("2pc://?workload=bank&timing=paper", requests=2)
    assert result.requested == 2
    assert result.delivered == 2
    assert result.total_messages > 0
    assert result.message_counts.get("Prepare", 0) >= 2
    assert result.breakdown.protocol == "2pc"
    summary = result.summary()
    assert "2pc://" in summary and "spec" in summary


def test_run_scenario_skips_termination_check_for_client_crashes():
    result = api.run_scenario("etx://a3.d1.c1?fault=crash@10:c1")
    assert result.delivered == 0
    assert result.spec.ok  # only safety was checked; no T.1 violation reported


def test_protocols_reject_parameters_they_do_not_consume():
    with pytest.raises(api.ScenarioError, match="does not support"):
        api.build(api.Scenario.from_dsn("2pc://?fd=heartbeat"))
    with pytest.raises(api.ScenarioError, match="does not support"):
        api.build(api.Scenario.from_dsn("baseline://?reliable=1"))
    with pytest.raises(api.ScenarioError, match="does not support"):
        api.build(api.Scenario.from_dsn("etx://?log=25"))
    # ... but the parameter is fine on a protocol that consumes it
    assert api.build(api.Scenario.from_dsn("2pc://?log=25"))
    assert api.build(api.Scenario.from_dsn("etx://?fd=heartbeat"))


@pytest.mark.parametrize("protocol", ["2pc", "pb", "baseline"])
def test_comparison_protocols_reject_etx_only_faults(protocol):
    """A fault that rides on e-Transaction machinery is a scenario error at
    build time, not a ValueError out of ``FaultSchedule.apply``."""
    with pytest.raises(api.ScenarioError, match="injected false suspicions"):
        api.build(api.Scenario.from_dsn(
            f"{protocol}://a2.d1.c1?fault=false_suspicion@15:a2:a1:200"))
    # ... while the protocol with an oracle detector takes it
    assert api.build(api.Scenario.from_dsn(
        "etx://a3.d1.c1?fault=false_suspicion@15:a2:a1:200"))


def test_explicit_zero_backoff_is_honoured():
    system = api.build(api.Scenario.from_dsn("etx://a3.d1.c1?backoff=0"))
    assert system.deployment.config.protocol_timing.client_backoff == 0.0
