"""Tests for the protocol table and :func:`repro.api.build`.

The smoke test parametrizes over :data:`repro.api.PROTOCOLS`, so any protocol
added later is automatically held to the same bar: one failure-free request
must execute end-to-end and satisfy the e-Transaction specification.
"""

import pytest

from repro import api
from repro.core.reshard import RESHARD_COORDINATOR


# ------------------------------------------------------------ protocol smoke


@pytest.mark.parametrize("protocol", api.PROTOCOLS)
def test_every_registered_protocol_passes_the_smoke_scenario(protocol):
    """One request, failure-free: delivered and ``SpecReport.ok``."""
    result = api.run_scenario(api.Scenario(protocol=protocol, workload="bank"))
    assert result.delivered == result.requested == 1
    assert result.spec.ok, result.spec.summary()
    assert result.ok


@pytest.mark.parametrize("protocol", api.PROTOCOLS)
def test_every_registered_protocol_builds_from_its_scheme(protocol):
    system = api.build(api.Scenario.from_dsn(f"{protocol}://"))
    assert system.scenario.protocol == protocol
    assert type(system) is api.PROTOCOLS[protocol]
    issued = system.run_request(system.standard_request())
    assert issued.delivered


def test_unknown_protocol_is_rejected_with_known_names():
    with pytest.raises(api.ScenarioError, match="known schemes: .*etx"):
        api.Scenario(protocol="carrier-pigeon")


@pytest.mark.parametrize("alias, protocol", [
    ("ar", "etx"), ("twopc", "2pc"), ("primary-backup", "pb")])
def test_every_alias_parses_and_builds(alias, protocol):
    assert alias in api.PROTOCOLS[protocol].aliases
    scenario = api.Scenario.from_dsn(f"{alias}://")
    assert scenario.protocol == protocol
    assert api.Scenario(protocol=alias) == scenario
    system = api.build(scenario)
    assert type(system) is api.PROTOCOLS[protocol]
    assert system.run_request(system.standard_request()).delivered


def test_pb_rejects_a_single_app_server():
    with pytest.raises(api.ScenarioError):
        api.build(api.Scenario(protocol="pb", num_app_servers=1))


# ---------------------------------------------------------- the run surface


def test_running_system_exposes_the_uniform_surface():
    scenario = api.Scenario.from_dsn("etx://a3.d1.c1?workload=bank")
    system = api.build(scenario)
    for attribute in ("issue", "run", "run_request", "apply_faults",
                      "check_spec", "stats", "standard_request"):
        assert hasattr(system, attribute)
    assert system.scenario is scenario
    assert system.workload.name == "bank"
    assert set(system.db_servers) == {"d1"}
    assert system.trace is system.sim.trace
    assert system.stats is system.network.stats


@pytest.mark.parametrize("dsn", ["etx://a3.d2.c2?runtime=asyncio",
                                 "pb://a2.d1.c3?runtime=asyncio&port=7400"])
def test_endpoint_order_is_the_scenarios_process_order(dsn):
    scenario = api.Scenario.from_dsn(dsn)
    system = api.build(scenario)
    try:
        assert [name for name, _, _ in system.network.endpoints.table()] \
            == scenario.process_names
    finally:
        system.close()


def test_a_reshard_run_orders_its_standbys_before_the_clients_and_the_coordinator_last():
    scenario = api.Scenario.from_dsn(
        "etx://a3.d2.c2?placement=hash&workload=bank&fault=reshard@100:d2->d4")
    assert scenario.process_names == ["a1", "a2", "a3", "d1", "d2", "d3", "d4",
                                      "c1", "c2", RESHARD_COORDINATOR]
    system = api.build(scenario)
    assert sorted(system.network.processes) == sorted(scenario.process_names)


def test_only_is_refused_on_the_simulator():
    with pytest.raises(api.ScenarioError, match="runtime=asyncio"):
        api.build(api.Scenario.from_dsn("etx://a3.d1.c1"), only=("a1",))


def test_scenario_faults_are_applied_at_build_time():
    system = api.build(api.Scenario.from_dsn(
        "etx://a3.d1.c1?detect=10&timing=paper&workload=bank&fault=crash@244:a1"))
    issued = system.run_request(system.standard_request())
    assert issued.delivered
    assert system.trace.count("crash", "a1") == 1
    # a backup answered on behalf of the crashed primary
    answered = {event.process for event in system.trace.select("as_result_sent")}
    assert answered - {"a1"}


def test_a_distributed_slice_schedules_only_the_faults_it_can_act_on(monkeypatch):
    """Partitions and heals everywhere, a suspicion where its observer is
    local, any other fault where its target is local."""
    from repro.core import deployment as deployment_module

    scheduled = []
    monkeypatch.setattr(deployment_module, "schedule_faults",
                        lambda faults, *args, **kwargs: scheduled.extend(faults))
    system = api.build(api.Scenario.from_dsn(
        "etx://a3.d1.c1?runtime=asyncio&fault=crash@50:a1&fault=crash_for@60:a2:5"
        "&fault=false_suspicion@10:a1:a2:20&fault=false_suspicion@10:a2:a1:20"
        "&fault=partition@5:a2|a3&fault=heal@9"), only=("a1",))
    system.close()
    assert api.faults_to_text(scheduled) == \
        "crash@50:a1,false_suspicion@10:a1:a2:20,partition@5:a2|a3,heal@9"


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
        api.build(api.Scenario.from_dsn("baseline://?mailbox=8"))
    with pytest.raises(api.ScenarioError, match="does not support"):
        api.build(api.Scenario.from_dsn("etx://?log=25"))
    # ... but the parameter is fine on a protocol that consumes it
    assert api.build(api.Scenario.from_dsn("2pc://?log=25"))
    assert api.build(api.Scenario.from_dsn("etx://?fd=heartbeat"))


@pytest.mark.parametrize("protocol", ["2pc", "pb", "baseline"])
def test_comparison_protocols_reject_etx_only_faults(protocol):
    """A fault that rides on e-Transaction machinery is a scenario error at
    build time, not a ValueError out of ``schedule_faults``."""
    with pytest.raises(api.ScenarioError, match="injected false suspicions"):
        api.build(api.Scenario.from_dsn(
            f"{protocol}://a2.d1.c1?fault=false_suspicion@15:a2:a1:200"))
    # ... while the protocol with an oracle detector takes it
    assert api.build(api.Scenario.from_dsn(
        "etx://a3.d1.c1?fault=false_suspicion@15:a2:a1:200"))


def test_explicit_zero_backoff_is_honoured():
    system = api.build(api.Scenario.from_dsn("etx://a3.d1.c1?backoff=0"))
    assert system.protocol_timing.client_backoff == 0.0
