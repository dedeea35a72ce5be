"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_quickstart_command_runs_and_reports(capsys):
    status = main(["quickstart"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "delivered=True" in captured
    assert "all properties hold" in captured


def test_figure8_command_prints_table_and_shape(capsys):
    status = main(["figure8", "--requests", "1"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "cost of rel." in captured
    assert "shape holds" in captured and "True" in captured


def test_figure7_command(capsys):
    status = main(["figure7"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "baseline" in captured and "AR" in captured
    assert "structure matches" in captured


def test_figure7_command_with_diagrams(capsys):
    status = main(["figure7", "--diagrams"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "->" in captured  # sequence arrows rendered


def test_figure1_command(capsys):
    status = main(["figure1"])
    captured = capsys.readouterr().out
    assert status == 0
    for scenario in ("a:", "b:", "c:", "d:"):
        assert scenario in captured


def test_fault_sweep_command(capsys):
    status = main(["fault-sweep", "--runs", "3"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "3 runs" in captured


def test_seed_flag_is_accepted(capsys):
    status = main(["--seed", "7", "quickstart"])
    assert status == 0


@pytest.mark.parametrize("dsn", [
    "etx://a3.d1.c1?fd=heartbeat&seed=7",
    "2pc://?workload=bank&timing=paper",
    "pb://a2.d1?workload=bank",
    "baseline://a1.d1.c1",
])
def test_run_command_executes_any_scheme(dsn, capsys):
    status = main(["run", dsn])
    captured = capsys.readouterr().out
    assert status == 0
    assert "spec" in captured and "all properties hold" in captured
    assert "1/1 delivered" in captured


def test_run_command_accepts_multiple_requests(capsys):
    status = main(["run", "etx://a3.d1.c1", "--requests", "2"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "2/2 delivered" in captured


def test_run_command_rejects_unknown_schemes(capsys):
    status = main(["run", "gopher://a3"])
    captured = capsys.readouterr()
    assert status == 2
    assert "unknown scenario scheme" in captured.err


def test_run_command_rejects_false_suspicion_on_a_comparison_protocol(capsys):
    """The comparison stacks have no detector to inject a mistake into."""
    status = main(["run", "pb://a2.d1.c1?fault=false_suspicion@15:a2:a1:200"])
    captured = capsys.readouterr()
    assert status == 2
    assert "error: protocol 'pb' does not support injected false suspicions" \
        in captured.err


def test_soak_json_creates_the_missing_directory(tmp_path, capsys):
    import json

    path = tmp_path / "no" / "such" / "dir" / "soak.json"
    status = main(["soak", "etx://a3.d1.c2?rate=20&trace=off", "--requests", "8",
                   "--checkpoints", "1", "--json", str(path)])
    assert status == 0
    assert f"BENCH json written to {path}" in capsys.readouterr().out
    assert json.loads(path.read_text())["delivered"] == 8


@pytest.mark.parametrize("argv", [
    ["run", "etx://a3.d2.c2?jobs=2"],
    ["soak", "etx://a3.d2.c2?rate=5&workers=2"],
    ["sweep", "etx://d2?jobs=2", "--axis", "clients=1", "--serial"],
])
def test_removed_sharding_params_are_unknown_dsn_parameters(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert "error: unknown DSN parameter" in captured.err


def test_removed_jobs_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "etx://a3.d1.c1", "--jobs", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_run_command_applies_the_global_seed(capsys):
    status = main(["--seed", "5", "run", "etx://a3.d1.c1"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "seed 5" in captured


def test_run_command_seed_zero_overrides_the_dsn_seed(capsys):
    status = main(["--seed", "0", "run", "etx://a3.d1.c1?seed=7"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "seed 0" in captured


def test_run_command_open_loop_reports_throughput(capsys):
    status = main(["run", "etx://a3.d1.c2?rate=40&seed=7"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "2/2 delivered" in captured
    assert "throughput" in captured and "p95" in captured
    assert "open loop @ 40/s poisson" in captured


def test_sweep_command_runs_a_grid_serially(capsys):
    status = main(["sweep", "etx://d1", "--axis", "protocol=etx,2pc",
                   "--axis", "clients=1,2", "--serial"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "tput/s" in captured
    assert captured.count("etx://") == 2 and captured.count("2pc://") == 2
    assert "all ok: True" in captured


def test_sweep_command_rejects_unknown_axes(capsys):
    status = main(["sweep", "etx://d1", "--axis", "warp=1,2", "--serial"])
    captured = capsys.readouterr()
    assert status == 2
    assert "unknown sweep axis" in captured.err


@pytest.mark.parametrize("axis, fragment", [
    ("host=127", "only apply to runtime=asyncio"),  # read as text, not an int
    ("trace=5", "bad value for 'trace'"),
    ("workload=1", "unknown workload '1'"),
    ("seed=1.5", "bad value for sweep axis 'seed'"),
    ("lat_ca=-1", "bad value for 'lat_ca'"),
    ("rate=inf", "bad value for 'rate'"),
])
def test_sweep_command_parses_axis_values_with_the_keys_parser(axis, fragment, capsys):
    status = main(["sweep", "etx://d1", "--axis", axis, "--serial"])
    captured = capsys.readouterr()
    assert status == 2
    assert "error:" in captured.err and fragment in captured.err
    assert "Traceback" not in captured.err


def test_sweep_command_applies_the_global_seed(capsys):
    status = main(["--seed", "3", "sweep", "etx://d1", "--axis",
                   "clients=1", "--serial"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "seed=3" in captured


def test_campaign_command_finds_and_writes_artifacts(tmp_path, capsys):
    status = main(["campaign", "baseline://a1.d1.c1?workload=bank&timing=paper&seed=3",
                   "--budget", "8", "--population", "8", "--stop-after", "1",
                   "--shrink-checks", "20", "--horizon", "60000",
                   "--settle", "10000", "--out", str(tmp_path),
                   "--expect", "violation"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "counterexample(s), shrunk" in captured
    artifacts = list(tmp_path.glob("*.json"))
    assert artifacts, "campaign --out must write artifacts"
    replay_status = main(["replay", str(artifacts[0])])
    replayed = capsys.readouterr().out
    assert replay_status == 0
    assert "reproduced" in replayed


def test_campaign_command_expect_clean_gates_on_violations(capsys):
    status = main(["campaign", "etx://a3.d1.c1?workload=bank&timing=paper&seed=3&detect=10",
                   "--budget", "6", "--population", "6",
                   "--horizon", "60000", "--settle", "10000",
                   "--expect", "clean"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "none found" in captured


def test_replay_command_asserts_a_bare_dsn_is_clean(capsys):
    status = main(["replay", "etx://a3.d1.c1?workload=bank&seed=7",
                   "--horizon", "60000", "--settle", "5000"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "clean pass confirmed" in captured


def test_replay_command_rejects_missing_artifacts(capsys):
    status = main(["replay", "no/such/artifact.json"])
    captured = capsys.readouterr()
    assert status == 2
    assert "error:" in captured.err


def test_replay_command_routes_sidecar_dsns_to_the_scenario_path(tmp_path, capsys):
    """A DSN whose faults live in a @sidecar ends in .json but is not an
    artifact file; routing is by '://', not by suffix."""
    from repro import api
    from repro.campaign import write_sidecar

    scenario = api.Scenario.from_dsn(
        "etx://a3.d1.c1?workload=bank&seed=7&detect=10"
        "&faults=partition@250:c1,heal@300")
    dsn = write_sidecar(scenario, str(tmp_path / "x.faults.json"))
    assert dsn.endswith(".json")
    status = main(["replay", dsn, "--horizon", "60000", "--settle", "5000"])
    captured = capsys.readouterr().out
    assert status == 0
    assert "clean pass confirmed" in captured
