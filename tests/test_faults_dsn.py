"""Property-based tests for the ``faults=`` DSN grammar.

Any sequence of :class:`~repro.api.FaultSpec` -- including partitions with
multi-group layouts -- must round-trip through its DSN text form, and unknown
fault kinds must be rejected at parse time, not mid-run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api.scenario import faults_from_text, faults_to_text
from repro.api import FaultSpec
from repro.campaign import write_sidecar

PROCESSES = ["a1", "a2", "a3", "d1", "d2", "c1"]

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
durations = st.floats(min_value=0.001, max_value=1e5, allow_nan=False,
                      allow_infinity=False)
names = st.sampled_from(PROCESSES)


@st.composite
def partition_layouts(draw):
    """Disjoint, non-empty groups over a shuffled subset of the processes."""
    members = draw(st.permutations(PROCESSES))
    size = draw(st.integers(min_value=1, max_value=len(PROCESSES)))
    members = members[:size]
    group_count = draw(st.integers(min_value=1, max_value=size))
    cut_points = sorted(draw(st.sets(st.integers(min_value=1, max_value=size - 1),
                                     max_size=group_count - 1))) if size > 1 else []
    groups, start = [], 0
    for cut in cut_points + [size]:
        groups.append(list(members[start:cut]))
        start = cut
    return [g for g in groups if g]


@st.composite
def fault_spec_lists(draw):
    faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(
            ["crash", "recover", "crash_for", "partition", "heal",
             "false_suspicion"]))
        time = draw(times)
        if kind in ("crash", "recover"):
            faults.append(FaultSpec(kind, time, draw(names)))
        elif kind == "crash_for":
            faults.append(FaultSpec(kind, time, draw(names), downtime=draw(durations)))
        elif kind == "partition":
            faults.append(FaultSpec(kind, time, groups=draw(partition_layouts())))
        elif kind == "heal":
            faults.append(FaultSpec(kind, time))
        else:
            observer, target = draw(st.permutations(PROCESSES))[:2]
            faults.append(FaultSpec(kind, time, target, observer=observer,
                                    duration=draw(durations)))
    return tuple(faults)


@settings(max_examples=80, deadline=None)
@given(fault_spec_lists())
def test_fault_specs_round_trip_through_faults_text(faults):
    assert faults_from_text(faults_to_text(faults)) == faults


@settings(max_examples=40, deadline=None)
@given(fault_spec_lists())
def test_fault_specs_round_trip_through_a_full_dsn(faults):
    scenario = api.Scenario(protocol="etx", num_app_servers=3,
                            num_db_servers=2, faults=faults)
    parsed = api.Scenario.from_dsn(scenario.to_dsn())
    assert parsed == scenario
    assert parsed.faults == faults


@settings(max_examples=30, deadline=None)
@given(st.lists(partition_layouts(), min_size=1, max_size=3), times)
def test_multi_group_partition_layouts_round_trip(layouts, time):
    specs = tuple(FaultSpec("partition", time + offset, groups=layout)
                  for offset, layout in enumerate(layouts))
    assert faults_from_text(faults_to_text(specs)) == specs
    assert [list(map(list, spec.groups)) for spec in specs] == layouts


@pytest.mark.parametrize("token", [
    "explode@5:a1",                 # unknown kind
    "meteor@1:d1:7",                # unknown kind with args
    "crash@5",                      # missing target
    "crash_for@5:d1",               # missing downtime
    "crash_for@5:d1:zero",          # non-numeric downtime
    "partition@5",                  # missing layout
    "heal@5:a1",                    # heal takes no target
    "partition@5:a1|a1",            # overlapping groups
    "false_suspicion@5:a1:a1:10",   # observer == target
    "crash@-1:a1",                  # negative time
    "crash@soon:a1",                # non-numeric time
    "crash@nan:a1",                 # NaN time
    "crash_for@10:d1:nan",          # NaN downtime
    "false_suspicion@10:a2:a1:nan", # NaN duration
    "crash_for@10:a1:inf",          # infinite downtime: a permanent crash is crash
])
def test_malformed_fault_tokens_are_rejected_at_parse_time(token):
    with pytest.raises(api.ScenarioError):
        faults_from_text(token)


def test_unknown_kind_rejected_inside_a_faults_list():
    with pytest.raises(api.ScenarioError, match="explode"):
        faults_from_text("crash@5:a1,explode@9:a2")


def test_fault_and_faults_params_are_mutually_exclusive():
    with pytest.raises(api.ScenarioError, match="one form"):
        api.Scenario.from_dsn("etx://a3?fault=crash@5:a1&faults=crash@9:a2")


def test_long_schedules_serialise_as_one_faults_param():
    specs = faults_from_text(
        "crash@5:a1,crash_for@10:d1:20,partition@30:a2~d1,heal@60")
    scenario = api.Scenario(protocol="etx", num_app_servers=3, faults=specs)
    dsn = scenario.to_dsn()
    assert "faults=" in dsn and "fault=" not in dsn.replace("faults=", "")
    assert api.Scenario.from_dsn(dsn) == scenario


def test_fault_sidecar_round_trips(tmp_path):
    specs = faults_from_text(
        "crash@5:a1,partition@30:a2~d1|a3,heal@60,crash_for@80:d1:25")
    scenario = api.Scenario(protocol="etx", num_app_servers=3,
                            num_db_servers=1, faults=specs)
    path = str(tmp_path / "schedule.faults.json")
    dsn = write_sidecar(scenario, path)
    assert f"faults=@{path}" in dsn
    parsed = api.Scenario.from_dsn(dsn)
    assert parsed == scenario


def test_sidecar_paths_with_query_hostile_characters_round_trip(tmp_path):
    specs = faults_from_text("crash@5:a1,heal@60")
    scenario = api.Scenario(protocol="etx", num_app_servers=3, faults=specs)
    path = str(tmp_path / "run+v1 &2.faults.json")
    dsn = write_sidecar(scenario, path)
    assert api.Scenario.from_dsn(dsn) == scenario


def test_missing_or_malformed_sidecars_fail_cleanly(tmp_path):
    with pytest.raises(api.ScenarioError, match="cannot read"):
        api.Scenario.from_dsn(f"etx://a3?faults=@{tmp_path}/absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"faults\": \"not-a-list\"}")
    with pytest.raises(api.ScenarioError, match="list of fault"):
        api.Scenario.from_dsn(f"etx://a3?faults=@{bad}")


def test_inapplicable_scalar_fields_are_rejected_not_dropped():
    with pytest.raises(api.ScenarioError, match="takes no downtime"):
        FaultSpec("crash", 100.0, "a1", downtime=500.0)  # meant crash_for
    with pytest.raises(api.ScenarioError, match="takes no observer"):
        FaultSpec("crash_for", 100.0, "d1", downtime=5.0, observer="a2")
    with pytest.raises(api.ScenarioError, match="takes no duration"):
        FaultSpec("heal", 100.0, duration=40.0)
