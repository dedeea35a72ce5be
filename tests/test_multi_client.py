"""Multi-client deployments: concurrent traffic from every client.

The paper presents a single client for simplicity; the protocols scope result
identifiers by client name exactly so that several clients can share a
deployment.  These tests drive requests from ``c2``/``c3`` concurrently
through all four protocol schemes and check that the specification stays
clean and the per-client statistics add up.
"""

import gc

import pytest

from repro import api
from repro.core.client import IssuedRequest
from repro.core.types import Request
from repro.workload.generator import ClosedLoop, OpenLoop

ALL_PROTOCOLS = list(api.PROTOCOLS)


def _scenario(protocol: str, clients: int = 3) -> api.Scenario:
    return api.Scenario(protocol=protocol, num_clients=clients,
                        workload="bank", timing="paper")


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_closed_loop_drives_every_client_concurrently(protocol):
    scenario = _scenario(protocol)
    result = api.run_scenario(scenario, requests=2)
    assert result.requested == 6
    assert result.delivered == 6
    assert result.spec.ok, result.spec.summary()
    assert set(result.statistics.by_client) == {"c1", "c2", "c3"}
    for name, leaf in result.statistics.by_client.items():
        assert leaf.count == 2, name
        assert leaf.undelivered == 0, name
        assert all(latency > 0 for latency in leaf.latencies), name
    assert result.statistics.count == sum(
        leaf.count for leaf in result.statistics.by_client.values())
    assert result.statistics.throughput > 0


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_requests_issued_from_c2_and_c3_explicitly(protocol):
    system = api.build(_scenario(protocol))
    first = system.issue(system.standard_request(), "c2")
    second = system.issue(system.standard_request(), "c3")
    system.sim.run_until(lambda: first.delivered and second.delivered,
                         until=60_000.0)
    assert first.delivered and second.delivered
    assert system.check_spec().ok


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_multi_client_money_is_conserved(protocol):
    """Concurrent debits from three clients commit exactly once each."""
    scenario = _scenario(protocol)
    system = api.build(scenario)
    stats = ClosedLoop().run(system, 2)
    assert stats.count == 6
    workload = system.workload.instance
    committed = {key: system.db_servers["d1"].committed_value(key)
                 for key in workload.initial_data()}
    # Every standard request debits account 0 by 10.
    assert committed["account:0"] == 100_000 - 6 * 10
    assert system.check_spec().ok


def test_closed_loop_can_drive_a_subset_of_clients():
    system = api.build(_scenario("etx", clients=3))
    stats = ClosedLoop(clients=["c2", "c3"]).run(system, 1)
    assert set(stats.by_client) == {"c2", "c3"}
    assert stats.count == 2
    assert system.check_spec().ok


def test_open_loop_round_robins_arrivals_over_clients():
    system = api.build(_scenario("etx", clients=2))
    stats = OpenLoop(rate=20.0, arrival="uniform").run(system, 2)
    assert stats.count == 4
    assert stats.by_client["c1"].count == 2
    assert stats.by_client["c2"].count == 2
    assert system.check_spec().ok


def test_open_loop_response_time_includes_queueing():
    """Arrivals faster than the service rate must queue: the open-loop
    response time grows with the queue while closed-loop latency would not."""
    system = api.build(_scenario("etx", clients=1))
    stats = OpenLoop(rate=50.0, arrival="uniform").run(system, 4)
    assert stats.count == 4
    ordered = sorted(stats.latencies)
    assert ordered[-1] > ordered[0] + 100.0  # later arrivals waited in line
    assert system.check_spec().ok


def test_duplicate_retries_are_replayed_not_reexecuted():
    """Under heavy queueing a client's back-off expires and it re-broadcasts;
    the serial coordinators must replay the decision, not re-run the
    transaction (2PC used to crash the database's prepare here)."""
    scenario = api.Scenario(protocol="2pc", num_clients=8,
                            workload="bank", timing="paper")
    result = api.run_scenario(scenario, requests=1)
    assert result.delivered == 8
    assert result.spec.ok, result.spec.summary()


def test_load_generators_terminate_when_a_client_is_down():
    """Offered load to a crashed client is lost, not waited for: the run
    must terminate promptly with the loss reported as undelivered."""
    system = api.build(_scenario("etx", clients=2))
    system.clients["c2"].crash()
    open_stats = OpenLoop(rate=20.0, arrival="uniform").run(system, 2)
    assert open_stats.count == 2                      # c1's two requests
    assert open_stats.undelivered == 2                # c2's lost arrivals
    system = api.build(_scenario("etx", clients=2))
    system.clients["c2"].crash()
    closed_stats = ClosedLoop().run(system, 2)
    assert closed_stats.count == 2
    assert closed_stats.undelivered == 2


def test_open_loop_breakdown_uses_service_latency_not_sojourn():
    """Client-side queueing is load, not protocol cost: the latency
    breakdown of a saturating open loop must not absorb the queueing delay
    into the 'other' component."""
    scenario = _scenario("etx", clients=1).with_(rate=50.0, arrival="uniform")
    result = api.run_scenario(scenario, requests=4)
    stats = result.statistics
    assert stats.mean_latency > stats.mean_service_latency + 50.0  # queueing
    assert result.breakdown.total == pytest.approx(stats.mean_service_latency)


def _alive(cls) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("generator", [ClosedLoop(), OpenLoop(rate=20.0)],
                         ids=["closed", "open"])
def test_a_delivered_request_leaves_nothing_behind(protocol, generator):
    """Neither the generator nor the client keeps a handle or, on ``etx``, a
    request once it is delivered (the baselines' servers keep the last request
    they served, and PB's backups mirror theirs)."""
    system = api.build(_scenario(protocol, clients=2))
    requests_before = _alive(Request)
    stats = generator.run(system, 5)
    assert stats.count == 10
    assert _alive(IssuedRequest) == 0
    if protocol == "etx":
        assert _alive(Request) == requests_before
