"""Tests for fault specs, fault scheduling and the random fault plan generator."""

import pytest

from repro.api import FaultSpec, faults_to_text
from repro.campaign.adversarial import RandomFaultPlan
from repro.failure.detectors import EventuallyPerfectFailureDetector
from repro.failure.injection import schedule_faults
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


def build(names):
    sim = Simulator()
    network = Network(sim)
    procs = {name: network.register(Process(sim, name)) for name in names}
    return sim, network, procs


def test_crash_and_recover_actions_apply():
    sim, network, procs = build(["a"])
    schedule_faults((FaultSpec("crash", 10.0, "a"), FaultSpec("recover", 20.0, "a")),
                    sim, network)
    sim.run(until=15.0)
    assert not procs["a"].up
    sim.run(until=25.0)
    assert procs["a"].up


def test_crash_for_action_applies():
    sim, network, procs = build(["a"])
    schedule_faults((FaultSpec("crash_for", 5.0, "a", downtime=10.0),), sim, network)
    sim.run(until=7.0)
    assert not procs["a"].up
    sim.run(until=20.0)
    assert procs["a"].up


def test_partition_and_heal_actions_apply():
    sim, network, procs = build(["a", "b"])
    schedule_faults((FaultSpec("partition", 5.0, groups=(["a"], ["b"])),
                     FaultSpec("heal", 15.0)), sim, network)
    sim.run(until=10.0)
    assert network._partitioned("a", "b")
    sim.run(until=20.0)
    assert not network._partitioned("a", "b")


def test_false_suspicion_requires_detector():
    sim, network, procs = build(["a", "b"])
    faults = (FaultSpec("false_suspicion", 5.0, "b", observer="a", duration=10.0),)
    with pytest.raises(ValueError):
        schedule_faults(faults, sim, network, fd=None)


def test_false_suspicion_applies_through_detector():
    sim, network, procs = build(["a", "b"])
    fd = EventuallyPerfectFailureDetector(network)
    schedule_faults((FaultSpec("false_suspicion", 5.0, "b", observer="a", duration=10.0),),
                    sim, network, fd)
    sim.run(until=8.0)
    assert fd.suspect("a", "b")
    sim.run(until=20.0)
    assert not fd.suspect("a", "b")


def test_invalid_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec("explode", 1.0, "a")


def test_negative_fault_time_rejected():
    with pytest.raises(ValueError):
        FaultSpec("crash", -1.0, "a")


def test_crash_for_requires_a_positive_numeric_downtime():
    with pytest.raises(ValueError, match="downtime"):
        FaultSpec("crash_for", 1.0, "d1")  # missing entirely
    with pytest.raises(ValueError, match="downtime"):
        FaultSpec("crash_for", 1.0, "d1", downtime=0.0)
    with pytest.raises(ValueError, match="downtime"):
        FaultSpec("crash_for", 1.0, "d1", downtime="soon")
    with pytest.raises(ValueError, match="downtime"):
        FaultSpec("crash_for", 1.0, "d1", downtime=True)
    assert FaultSpec("crash_for", 1.0, "d1", downtime=5.0)


def test_partition_groups_validated_eagerly():
    with pytest.raises(ValueError, match="groups"):
        FaultSpec("partition", 1.0)  # no groups at all
    with pytest.raises(ValueError, match="non-empty"):
        FaultSpec("partition", 1.0, groups=[])
    with pytest.raises(ValueError, match="non-empty"):
        FaultSpec("partition", 1.0, groups=[["a"], []])
    with pytest.raises(ValueError, match="two partition groups"):
        FaultSpec("partition", 1.0, groups=[["a", "b"], ["b"]])
    with pytest.raises(ValueError, match="two partition groups"):
        FaultSpec("partition", 1.0, groups=[["a", "a"]])
    assert FaultSpec("partition", 1.0, groups=[["a"], ["b"]])


def test_overlapping_partition_rejected_by_the_network_too():
    sim, network, procs = build(["a", "b"])
    with pytest.raises(ValueError, match="two partition groups"):
        network.partition(["a", "b"], ["b"])
    with pytest.raises(ValueError, match="unknown process"):
        network.partition(["a"], ["ghost"])


def test_false_suspicion_params_validated_eagerly():
    with pytest.raises(ValueError, match="observer"):
        FaultSpec("false_suspicion", 1.0, "b", duration=5.0)
    with pytest.raises(ValueError, match="must differ"):
        FaultSpec("false_suspicion", 1.0, "b", observer="b", duration=5.0)
    with pytest.raises(ValueError, match="duration"):
        FaultSpec("false_suspicion", 1.0, "b", observer="a")
    with pytest.raises(ValueError, match="duration"):
        FaultSpec("false_suspicion", 1.0, "b", observer="a", duration=-3.0)


def test_target_requirements_validated_eagerly():
    with pytest.raises(ValueError, match="needs a target"):
        FaultSpec("crash", 1.0)
    with pytest.raises(ValueError, match="takes no target"):
        FaultSpec("heal", 1.0, "a")
    with pytest.raises(ValueError, match="takes no target"):
        FaultSpec("partition", 1.0, "a", groups=[["b"]])


def test_schedule_iterates_in_time_order():
    sim, network, procs = build(["a", "b"])
    # Out of time order, and two faults due at once: those fire as given.
    schedule_faults((FaultSpec("crash", 30.0, "b"), FaultSpec("crash", 10.0, "a"),
                     FaultSpec("recover", 10.0, "a")), sim, network)
    sim.run(until=20.0)
    assert procs["a"].up and procs["b"].up
    sim.run(until=40.0)
    assert not procs["b"].up
    sim, network, procs = build(["a"])
    schedule_faults((FaultSpec("recover", 10.0, "a"), FaultSpec("crash", 10.0, "a")),
                    sim, network)
    sim.run(until=20.0)
    assert not procs["a"].up


def test_random_plan_is_deterministic_per_seed():
    plan = RandomFaultPlan(app_servers=["a1", "a2", "a3"], db_servers=["d1", "d2"])
    first = plan.generate(seed=7)
    second = plan.generate(seed=7)
    third = plan.generate(seed=8)
    assert first == second
    assert first != third or len(first) == 0


# faults_to_text(plan.generate(seed)) for seeds 0-4 of the fault sweep's plan
# (python -m repro experiment fault_sweep), without and with client crashes.  A reordered
# or extra RNG draw changes these strings.
SWEEP_PLAN_FAULTS = [
    "crash_for@688.6757488388489:d1:127.88087747566888,crash@868.9183977257254:a1",
    "false_suspicion@259.66024074303203:a1:a2:40,crash@445.89157838274684:a2,"
    "crash_for@488.6947295420722:d1:122.53403564761672",
    "crash@751.9489903165046:a2",
    "false_suspicion@155.61240859680458:a1:a2:40,crash@543.528034736575:a2",
    "crash_for@49.88632175969243:d1:72.20683188305972,crash@356.4524183496129:a3",
]
SWEEP_PLAN_FAULTS_WITH_CLIENT_CRASHES = [
    "crash_for@688.6757488388489:d1:127.88087747566888,crash@868.9183977257254:a1",
    "crash@21.26060739150473:c1,crash@445.89157838274684:a2,"
    "crash_for@488.6947295420722:d1:122.53403564761672",
    "crash@751.9489903165046:a2",
    "crash@9.875993666155603:c1,crash@543.528034736575:a2",
    "crash_for@49.88632175969243:d1:72.20683188305972,crash@356.4524183496129:a3",
]


@pytest.mark.parametrize("client_crashes, expected", [
    (False, SWEEP_PLAN_FAULTS),
    (True, SWEEP_PLAN_FAULTS_WITH_CLIENT_CRASHES),
])
def test_random_plan_draws_are_pinned(client_crashes, expected):
    plan = RandomFaultPlan(app_servers=["a1", "a2", "a3"], db_servers=["d1"],
                           client="c1" if client_crashes else None, horizon=1_500.0,
                           client_crash_probability=0.4 if client_crashes else 0.0)
    assert [faults_to_text(plan.generate(seed)) for seed in range(5)] == expected


def test_random_plan_respects_app_server_majority():
    plan = RandomFaultPlan(app_servers=["a1", "a2", "a3"], db_servers=[],
                           db_crash_probability=0.0, false_suspicion_probability=0.0)
    for seed in range(30):
        faults = plan.generate(seed)
        app_crashes = [f for f in faults if f.kind == "crash" and f.target.startswith("a")]
        assert len(app_crashes) <= 1  # minority of 3


def test_random_plan_db_crashes_always_recover():
    plan = RandomFaultPlan(app_servers=["a1", "a2", "a3"], db_servers=["d1", "d2"],
                           db_crash_probability=1.0)
    faults = plan.generate(seed=3)
    db_faults = [f for f in faults if f.target.startswith("d")]
    assert db_faults, "expected database faults with probability 1"
    assert all(f.kind == "crash_for" for f in db_faults)
