"""Tests for the declarative sweep subsystem and its parallel executor."""

import pytest

from repro import api
from repro.api.sweep import Sweep, default_workers, map_jobs, resolve_axis_field


# ------------------------------------------------------------------ expansion


def test_expand_takes_the_cartesian_product_in_order():
    sweep = Sweep.over("etx://d1", seed=[1, 2], clients=[1, 3])
    scenarios = sweep.expand()
    assert len(scenarios) == 4
    assert [(s.seed, s.num_clients) for s in scenarios] == \
        [(1, 1), (1, 3), (2, 1), (2, 3)]


def test_axis_names_accept_dsn_spellings_and_field_names():
    assert resolve_axis_field("clients") == "num_clients"
    assert resolve_axis_field("fd") == "failure_detector"
    assert resolve_axis_field("num_db_servers") == "num_db_servers"
    assert resolve_axis_field("rate") == "rate"
    with pytest.raises(api.ScenarioError):
        resolve_axis_field("warp_factor")


def test_compound_axes_move_several_fields_together():
    sweep = Sweep.over("etx://d1", stack=[
        {"protocol": "baseline", "a": 1},
        {"protocol": "etx", "a": 3},
    ])
    scenarios = sweep.expand()
    assert [(s.protocol, s.num_app_servers) for s in scenarios] == \
        [("baseline", 1), ("etx", 3)]


def test_empty_axis_is_rejected():
    with pytest.raises(api.ScenarioError):
        Sweep.over("etx://d1", seed=[])


def test_text_axis_values_go_through_the_keys_parser():
    sweep = Sweep.over("etx://d1?runtime=asyncio", clients=["1", "3"], rate=["2.5"],
                       host=["127"])
    assert [(s.num_clients, s.rate, s.host) for s in sweep.expand()] == \
        [(1, 2.5, "127"), (3, 2.5, "127")]
    with pytest.raises(api.ScenarioError, match="bad value for sweep axis 'seed'"):
        Sweep.over("etx://d1", seed=["1.5"])


def test_fault_axes_expand_fault_lists():
    sweep = Sweep.over("etx://a3.d1", faults=[
        (),
        (api.FaultSpec("crash", 100.0, "a1"),),
    ])
    scenarios = sweep.expand()
    assert scenarios[0].faults == ()
    assert scenarios[1].faults[0].target == "a1"


# ------------------------------------------------------------------- executor


def test_default_workers_is_capped_and_positive():
    assert default_workers(0) == 1
    assert default_workers(1) == 1
    assert 1 <= default_workers(1_000) <= 1_000


def test_map_jobs_serial_preserves_order():
    assert map_jobs(_double, [1, 2, 3], workers=1) == [2, 4, 6]


def test_map_jobs_parallel_matches_serial():
    jobs = list(range(6))
    assert map_jobs(_double, jobs, workers=3) == map_jobs(_double, jobs, workers=1)


def _double(value):
    return value * 2


# ------------------------------------------------------------------ run_sweep


@pytest.fixture(scope="module")
def small_grid():
    return Sweep.over("etx://d1?workload=bank&timing=paper",
                      protocol=["etx", "2pc"], clients=[1, 2])


def test_run_sweep_serial_executes_the_grid(small_grid):
    result = api.run_sweep(small_grid, requests=1, workers=1)
    assert len(result) == 4
    assert result.ok
    for row, scenario in zip(result, small_grid.expand()):
        assert row.scenario == scenario
        assert row.delivered == row.requested == scenario.num_clients
        assert row.spec.ok


def test_run_sweep_parallel_is_byte_identical_to_serial(small_grid):
    serial = api.run_sweep(small_grid, requests=1, workers=1)
    parallel = api.run_sweep(small_grid, requests=1, workers=4)
    assert serial.to_table() == parallel.to_table()
    for row_s, row_p in zip(serial, parallel):
        assert row_s.dsn == row_p.dsn
        assert row_s.statistics.latencies == row_p.statistics.latencies
        assert row_s.statistics.attempts == row_p.statistics.attempts
        assert row_s.message_counts == row_p.message_counts
        assert row_s.breakdown.components == row_p.breakdown.components
        assert row_s.spec.ok == row_p.spec.ok


def test_run_sweep_accepts_an_explicit_scenario_list():
    scenarios = [api.Scenario(protocol="etx", seed=seed) for seed in (1, 2)]
    result = api.run_sweep(scenarios, requests=1, workers=1)
    assert [row.scenario.seed for row in result] == [1, 2]
    assert result.ok


def test_sweep_table_renders_one_row_per_grid_point(small_grid):
    result = api.run_sweep(small_grid, requests=1, workers=1)
    table = result.to_table()
    lines = table.splitlines()
    assert len(lines) == 1 + 4
    assert "tput/s" in lines[0] and "p95" in lines[0] and "spec" in lines[0]
    assert all(line.rstrip().endswith("ok") for line in lines[1:])


def test_faults_axis_accepts_fault_list_strings():
    """Whole fault schedules sweep as easily as numeric knobs."""
    sweep = api.Sweep.over(
        "etx://a3.d1.c1?workload=bank",
        faults=["crash@200:a1", "partition@200:a1,heal@260", ""])
    scenarios = sweep.expand()
    assert [len(s.faults) for s in scenarios] == [1, 2, 0]
    assert scenarios[0].faults[0].kind == "crash"
    assert scenarios[1].faults[0].kind == "partition"
    assert scenarios[1].faults[1].kind == "heal"


def test_faults_axis_semicolons_keep_a_schedule_in_one_value():
    """The CLI axis grammar splits values on commas; semicolons carry a
    whole multi-fault schedule as a single axis value."""
    sweep = api.Sweep.over(
        "etx://a3.d1.c1?workload=bank",
        faults=["crash@10:a1;recover@20:a1", "crash@5:a2"])
    scenarios = sweep.expand()
    assert [len(s.faults) for s in scenarios] == [2, 1]
    assert [f.kind for f in scenarios[0].faults] == ["crash", "recover"]
