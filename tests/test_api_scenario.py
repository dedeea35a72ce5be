"""Tests for the scenario DSN parser/serializer of :mod:`repro.api`."""

import re
from pathlib import Path

import pytest

from repro import api
from repro.api.scenario import FaultSpec, Scenario, ScenarioError
from repro.runtime.base import RuntimeSpec


# ------------------------------------------------------------- round-trip


ROUND_TRIP_SCENARIOS = [
    Scenario(),
    Scenario(protocol="2pc"),
    Scenario(protocol="pb", num_db_servers=2),
    Scenario(protocol="baseline", seed=9, loss_probability=0.25),
    Scenario(protocol="etx", num_app_servers=5, num_clients=2,
             failure_detector="heartbeat", register_mode="local",
             detection_delay=10.0, heartbeat_interval=2.5, heartbeat_timeout=40.0,
             client_app_latency=12.0, app_app_latency=1.0, app_db_latency=0.25,
             client_backoff=40.0, workload="bank", timing="paper"),
    Scenario(protocol="etx", faults=(
        FaultSpec("crash", 244.0, "a1"),
        FaultSpec("recover", 500.0, "a1"),
        FaultSpec("crash_for", 600.0, "d1", downtime=800.0),
        FaultSpec("false_suspicion", 15.0, "a1", observer="a2", duration=200.0),
    )),
    Scenario(protocol="2pc", coordinator_log_latency=25.0, timing="paper"),
    Scenario(protocol="etx", num_clients=8, rate=50.0, seed=7),
    Scenario(protocol="etx", num_clients=4, rate=12.5, arrival="uniform"),
    Scenario(protocol="pb", num_clients=4, think_time=250.0),
    Scenario(protocol="etx", num_db_servers=4, num_clients=8, rate=6.0,
             seed=7, placement="hash", mailbox=8,
             faults=(FaultSpec("reshard", 5000.0, from_shards=4, to_shards=8),)),
    Scenario(protocol="etx", runtime="asyncio", host="localhost", port=7450,
             pace=0.05),
]


@pytest.mark.parametrize("scenario", ROUND_TRIP_SCENARIOS,
                         ids=lambda s: s.to_dsn())
def test_dsn_round_trips(scenario):
    assert Scenario.from_dsn(scenario.to_dsn()) == scenario


def test_parse_the_issue_example():
    scenario = Scenario.from_dsn("etx://a3.d1.c1?fd=heartbeat&loss=0.01&seed=7")
    assert scenario.protocol == "etx"
    assert scenario.num_app_servers == 3
    assert scenario.num_db_servers == 1
    assert scenario.num_clients == 1
    assert scenario.failure_detector == "heartbeat"
    assert scenario.loss_probability == 0.01
    assert scenario.seed == 7


def test_to_dsn_omits_defaults():
    assert Scenario().to_dsn() == "etx://a3.d1.c1"
    assert Scenario(protocol="2pc").to_dsn() == "2pc://a1.d1.c1"


# ------------------------------------------------------------- defaulting


def test_omitted_host_components_use_protocol_defaults():
    assert Scenario.from_dsn("etx://").num_app_servers == 3
    assert Scenario.from_dsn("pb://").num_app_servers == 2
    assert Scenario.from_dsn("2pc://").num_app_servers == 1
    assert Scenario.from_dsn("baseline://").num_app_servers == 1
    scenario = Scenario.from_dsn("etx://d2")
    assert (scenario.num_app_servers, scenario.num_db_servers,
            scenario.num_clients) == (3, 2, 1)


def test_host_components_accept_any_order():
    scenario = Scenario.from_dsn("etx://c2.a5.d3")
    assert (scenario.num_app_servers, scenario.num_db_servers,
            scenario.num_clients) == (5, 3, 2)


def test_scheme_aliases_normalise_to_canonical_protocols():
    assert Scenario.from_dsn("ar://") == Scenario.from_dsn("etx://")
    assert Scenario.from_dsn("twopc://") == Scenario.from_dsn("2pc://")
    assert Scenario.from_dsn("primary-backup://") == Scenario.from_dsn("pb://")
    assert Scenario.from_dsn("ar://").to_dsn().startswith("etx://")


def test_omitted_query_parameters_fall_back_to_defaults():
    scenario = Scenario.from_dsn("etx://a3")
    assert scenario.seed == 0
    assert scenario.failure_detector == "oracle"
    assert scenario.register_mode == "consensus"
    assert scenario.workload == "default"
    assert scenario.timing == "default"
    assert scenario.faults == ()


# ----------------------------------------------------------------- errors


@pytest.mark.parametrize("dsn, fragment", [
    ("gopher://a3", "unknown scenario scheme"),
    ("etx", "missing '://'"),
    ("etx://x3", "bad host token"),
    ("etx://a3.a4", "given twice"),
    ("etx://a3?warp=9", "unknown DSN parameter"),
    ("etx://a3.d2.c2?jobs=2", "unknown DSN parameter 'jobs'"),
    ("etx://a3.d2.c2?workers=2", "unknown DSN parameter 'workers'"),
    ("etx://a3.d1.c1?reliable=1", "unknown DSN parameter 'reliable'"),
    ("etx://a3?seed=1&seed=2", "ambiguous"),
    ("etx://a3?seed=1&seed=1", "ambiguous"),
    ("etx://a3?seed=banana", "bad value for 'seed'"),
    ("etx://a3?fd=psychic", "unknown failure detector"),
    ("etx://a3?register=shared-memory", "unknown register mode"),
    ("etx://a3?loss=1.5", "loss probability"),
    ("etx://a3?fault=crash", "malformed fault token"),
    ("etx://a3?fault=warp@1:a1", "unknown fault kind"),
    ("etx://a0", "at least one process"),
    ("etx://d0", "at least one process"),
    ("etx://c0", "at least one process"),
    # Values the build would refuse with a bare ValueError are refused by
    # their parameter's row at parse time ...
    ("etx://a3?lat_ca=-1", "bad value for 'lat_ca'"),
    ("etx://a3?lat_aa=-0.5", "bad value for 'lat_aa'"),
    ("etx://a3?lat_ad=-2", "bad value for 'lat_ad'"),
    ("2pc://a1?log=-3", "bad value for 'log'"),
    ("etx://a3?detect=-1", "bad value for 'detect'"),
    ("etx://a3?hb_interval=0", "bad value for 'hb_interval'"),
    ("etx://a3?hb_timeout=-20", "bad value for 'hb_timeout'"),
    # ... and a NaN, which would break the round trip (nan != nan).
    ("etx://a3?rate=nan", "bad value for 'rate'"),
    ("etx://a3?think=nan", "bad value for 'think'"),
    ("etx://a3?backoff=nan", "bad value for 'backoff'"),
    ("etx://a3?runtime=asyncio&pace=nan", "bad value for 'pace'"),
    ("etx://a3?hb_interval=nan", "bad value for 'hb_interval'"),
    ("etx://a3?lat_aa=nan", "bad value for 'lat_aa'"),
    # ... and an infinity, which a run divides by or waits for forever.
    ("etx://a3.d1.c1?rate=inf&seed=1", "bad value for 'rate'"),
    ("etx://a3.d1.c1?hb_interval=inf&fd=heartbeat", "bad value for 'hb_interval'"),
    ("etx://a3.d1.c1?lat_ca=inf", "bad value for 'lat_ca'"),
    ("etx://a3.d1.c1?think=inf", "bad value for 'think'"),
])
def test_clear_errors_on_bad_dsns(dsn, fragment):
    with pytest.raises(ScenarioError) as excinfo:
        Scenario.from_dsn(dsn)
    assert fragment in str(excinfo.value)


def test_the_readme_documents_exactly_the_dsn_parameters():
    # The README's parameter table names every spelling the parser accepts
    # (first column), and nothing else: a deleted key leaves no stale row.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("**Query parameters**", 1)[1].split("\n\n", 2)[1]
    documented = set()
    for row in table.splitlines()[2:]:
        documented.update(re.findall(r"`([a-z_]+)`", row.split("|")[1]))
    with pytest.raises(ScenarioError) as excinfo:
        Scenario.from_dsn("etx://?no_such_parameter=1")
    accepted = set(str(excinfo.value).split("known parameters: ", 1)[1].split(", "))
    assert documented == accepted
    # Each row's default column, its "(etx)"/"(2PC)" consumer mark and its
    # "`runtime=asyncio` only" mark agree with the parameter table.
    from repro.api.scenario import PARAMS_BY_KEY, _text

    marks = {"etx": "etx", "2pc": "2PC"}
    checked = set()
    for line in table.splitlines()[2:]:
        _, names, meaning, default, _ = line.split("|")
        keys = [key for key in re.findall(r"`([a-z_]+)`", names)
                if key in PARAMS_BY_KEY]
        defaults = [text.strip() for text in default.split(" / ")]
        if not keys:
            continue
        rows = [PARAMS_BY_KEY[key] for key in keys]
        assert defaults == [f"`{_text(row.default)}`" if _text(row.default) else "—"
                            for row in rows], line
        (consumers,) = {row.protocols for row in rows}
        assert set(re.findall(r"\((etx|2PC)\b", meaning)) == \
            {marks[protocol] for protocol in consumers}, line
        (asyncio_only,) = {row.asyncio_only for row in rows}
        assert ("`runtime=asyncio` only" in meaning) == asyncio_only, line
        checked.update(keys)
    assert checked == set(PARAMS_BY_KEY)


def test_scenario_error_is_a_value_error():
    assert issubclass(ScenarioError, ValueError)


# ----------------------------------------------------------------- faults


def test_fault_tokens_round_trip():
    for token in ("crash@244:a1", "recover@500:a1", "crash_for@600:d2:800",
                  "false_suspicion@15:a2:a1:200"):
        assert FaultSpec.from_token(token).to_token() == token


def test_build_applies_every_dsn_fault():
    scenario = Scenario.from_dsn(
        "etx://?fault=crash@244:a1&fault=crash_for@600:d1:800")
    assert [fault.kind for fault in scenario.faults] == ["crash", "crash_for"]
    deployment = api.build(scenario)
    deployment.sim.run(until=700.0)
    assert not deployment.app_servers["a1"].up
    assert not deployment.db_servers["d1"].up
    deployment.sim.run(until=1_500.0)
    assert deployment.db_servers["d1"].up


# ------------------------------------------------------------ conveniences


def test_with_replaces_fields():
    scenario = Scenario.from_dsn("etx://a3?seed=1")
    assert scenario.with_(seed=9).seed == 9
    assert scenario.seed == 1


def test_tier_name_helpers_match_host():
    scenario = Scenario.from_dsn("etx://a2.d2.c2")
    assert scenario.app_server_names == ["a1", "a2"]
    assert scenario.db_server_names == ["d1", "d2"]
    assert scenario.client_names == ["c1", "c2"]


def test_api_reexports_the_scenario_surface():
    assert api.Scenario is Scenario
    assert api.FaultSpec is FaultSpec
    assert "etx" in api.known_schemes()


def test_faults_naming_unknown_processes_are_rejected():
    with pytest.raises(ScenarioError, match="unknown process 'a9'"):
        Scenario.from_dsn("etx://a3.d1.c1?fault=crash@10:a9")
    with pytest.raises(ScenarioError, match="unknown process 'a7'"):
        Scenario.from_dsn("etx://a3?fault=false_suspicion@15:a7:a1:200")
    with pytest.raises(ScenarioError, match="unknown process 'd9'"):
        Scenario.from_dsn("etx://a3.d1?fault=partition@10:a1~d9")
    # valid targets in any tier parse fine
    assert Scenario.from_dsn("etx://a3.d1.c1?fault=crash@10:c1")
    assert Scenario.from_dsn("etx://a3.d2?fault=crash_for@10:d2:50")


# ------------------------------------------------------------ traffic shape


def test_parse_the_open_loop_issue_example():
    scenario = Scenario.from_dsn("etx://a3.d1.c8?rate=50&arrival=poisson&seed=7")
    assert scenario.num_clients == 8
    assert scenario.rate == 50.0
    assert scenario.arrival == "poisson"
    assert scenario.seed == 7
    assert Scenario.from_dsn(scenario.to_dsn()) == scenario


def test_clients_query_parameter_is_an_alternative_host_spelling():
    scenario = Scenario.from_dsn("etx://a3.d1?clients=4&think=100")
    assert scenario.num_clients == 4
    assert scenario.think_time == 100.0
    # Serialisation always uses the host token, never the parameter.
    assert ".c4" in scenario.to_dsn() and "clients=" not in scenario.to_dsn()
    assert Scenario.from_dsn(scenario.to_dsn()) == scenario


def test_clients_parameter_conflicting_with_host_is_ambiguous():
    with pytest.raises(ScenarioError, match="host token"):
        Scenario.from_dsn("etx://a3.d1.c8?clients=8")


def test_load_shape_validation():
    with pytest.raises(ScenarioError, match="non-negative"):
        Scenario(rate=-1.0)
    with pytest.raises(ScenarioError, match="arrival"):
        Scenario(rate=5.0, arrival="bursty")
    with pytest.raises(ScenarioError, match="think time"):
        Scenario(think_time=-2.0)
    with pytest.raises(ScenarioError, match="closed-loop"):
        Scenario(rate=5.0, think_time=10.0)


def test_an_int_row_accepts_an_int_too_big_for_a_float():
    # The finite-value rule must not overflow converting it to a float.
    scenario = Scenario.from_dsn("etx://a3?mailbox=1" + "0" * 400)
    assert scenario.mailbox == 10 ** 400
    assert Scenario.from_dsn(scenario.to_dsn()) == scenario


def test_describe_mentions_the_load_shape():
    # The run summary is where a scenario's traffic shape is described.
    def load_line(dsn):
        summary = api.run_scenario(dsn, settle=0.0).summary()
        return next(line for line in summary.splitlines() if line.startswith("load"))

    assert "open loop @ 50/s poisson" in load_line("etx://a3.d1.c1?rate=50")
    assert "closed loop" in load_line("etx://a3.d1.c1")
    assert "think 250 ms" in load_line("etx://a3.d1.c1?think=250")


# ----------------------------------------------------------- runtime backend


def test_runtime_params_round_trip_through_the_dsn():
    scenario = Scenario.from_dsn(
        "etx://a3.d1.c4?runtime=asyncio&host=10.0.0.5&port=7000&pace=0.2")
    assert scenario.runtime == "asyncio"
    assert scenario.host == "10.0.0.5"
    assert scenario.port == 7000
    assert scenario.pace == 0.2
    assert Scenario.from_dsn(scenario.to_dsn()) == scenario
    spec = scenario.runtime_spec
    assert spec.kind == "asyncio" and spec.port == 7000 and not spec.distributed


def test_unknown_runtime_rejected_with_the_known_list():
    with pytest.raises(ScenarioError, match="unknown runtime 'trio'.*sim.*asyncio"):
        Scenario.from_dsn("etx://?runtime=trio")


def test_malformed_endpoints_rejected_at_parse_time():
    with pytest.raises(ScenarioError, match="bad value for 'port'"):
        Scenario.from_dsn("etx://?runtime=asyncio&port=http")
    with pytest.raises(ScenarioError, match=r"port must be in \[0, 65535\]"):
        Scenario.from_dsn("etx://?runtime=asyncio&port=70000")
    with pytest.raises(ScenarioError, match="host"):
        Scenario.from_dsn("etx://?runtime=asyncio&host=10.0.0.5:7000")
    with pytest.raises(ScenarioError, match="pace must be > 0"):
        Scenario.from_dsn("etx://?runtime=asyncio&pace=0")


def test_port_range_must_fit_every_process():
    # Process i listens on port+i, so the base port must leave room for the
    # whole deployment below 65535.
    with pytest.raises(ScenarioError, match="port range"):
        Scenario.from_dsn("etx://a3.d1.c4?runtime=asyncio&port=65530")


def test_endpoint_params_meaningless_under_the_simulator():
    for dsn in ("etx://?host=10.0.0.5", "etx://?port=7000", "etx://?pace=0.2"):
        with pytest.raises(ScenarioError, match="runtime=asyncio"):
            Scenario.from_dsn(dsn)
    # Same for a local subset: the simulated fabric hosts every process.
    with pytest.raises(ValueError, match="runtime=asyncio"):
        RuntimeSpec(kind="sim", only=("a1",))


def test_host_env_and_port_file_resolve_indirectly(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_HOST", "192.168.7.1")
    port_file = tmp_path / "port"
    port_file.write_text("7100\n")
    scenario = Scenario.from_dsn(
        f"etx://?runtime=asyncio&host_env=REPRO_HOST&port_file={port_file}")
    assert scenario.host == "192.168.7.1"
    assert scenario.port == 7100
    # Serialisation is canonical: the resolved values, not the indirection.
    assert "host=192.168.7.1" in scenario.to_dsn()


def test_indirect_and_direct_endpoint_params_are_ambiguous(monkeypatch):
    monkeypatch.setenv("REPRO_HOST", "192.168.7.1")
    with pytest.raises(ScenarioError, match="ambiguous"):
        Scenario.from_dsn(
            "etx://?runtime=asyncio&host=10.0.0.5&host_env=REPRO_HOST")


def test_missing_indirect_sources_are_clear_errors(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_NO_SUCH_VAR", raising=False)
    with pytest.raises(ScenarioError, match="REPRO_NO_SUCH_VAR"):
        Scenario.from_dsn("etx://?runtime=asyncio&host_env=REPRO_NO_SUCH_VAR")
    with pytest.raises(ScenarioError, match="port_file"):
        Scenario.from_dsn(
            f"etx://?runtime=asyncio&port_file={tmp_path / 'absent'}")


# ------------------------------------------------- full-surface round-trip

from hypothesis import given, settings, strategies as st  # noqa: E402

# Fault instants: plain integers plus awkward floats -- including values big
# enough that repr() uses scientific notation, which must survive a URL
# (the serializer strips the '+' that urlencode would turn into a space).
_times = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(float),
    st.floats(min_value=0.0, max_value=1e21, allow_nan=False,
              allow_infinity=False),
)
_positive_times = _times.filter(lambda t: t > 0)


@st.composite
def _fault_lists(draw, names, allow_reshard, num_db_servers):
    """0..6 fault atoms over the deployment's process names."""
    faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(
            ["crash", "recover", "crash_for", "false_suspicion",
             "partition", "heal"]))
        time = draw(_times)
        if kind in ("crash", "recover"):
            faults.append(FaultSpec(kind, time, draw(st.sampled_from(names))))
        elif kind == "crash_for":
            faults.append(FaultSpec(kind, time, draw(st.sampled_from(names)),
                                    downtime=draw(_positive_times)))
        elif kind == "false_suspicion":
            observer, target = draw(st.permutations(names).map(lambda p: p[:2]))
            faults.append(FaultSpec(kind, time, target, observer=observer,
                                    duration=draw(_positive_times)))
        elif kind == "partition":
            split = draw(st.integers(min_value=1, max_value=len(names) - 1))
            members = draw(st.permutations(names))
            faults.append(FaultSpec(kind, time, groups=(
                tuple(members[:split]), tuple(members[split:]))))
        else:
            faults.append(FaultSpec(kind, time))
    if allow_reshard and draw(st.booleans()):
        count = num_db_servers
        time = 0.0
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            grown = draw(st.integers(min_value=1, max_value=9)
                         .filter(lambda n: n != count))
            time += draw(_positive_times)
            faults.append(FaultSpec("reshard", time, from_shards=count,
                                    to_shards=grown))
            count = grown
    return tuple(faults)


@st.composite
def _scenarios(draw):
    protocol = draw(st.sampled_from(["etx", "2pc", "pb", "baseline"]))
    apps = draw(st.integers(min_value=1, max_value=5))
    dbs = draw(st.integers(min_value=1, max_value=4))
    clients = draw(st.integers(min_value=1, max_value=8))
    kwargs = {
        "protocol": protocol,
        "num_app_servers": apps,
        "num_db_servers": dbs,
        "num_clients": clients,
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
        "mailbox": draw(st.integers(min_value=0, max_value=64)),
        "trace": draw(st.sampled_from(["full", "off"])
                      | st.integers(min_value=1, max_value=10**6)
                        .map(lambda n: f"ring:{n}")),
    }
    rate = draw(st.floats(min_value=0.0, max_value=5000.0, allow_nan=False))
    kwargs["rate"] = rate
    if rate > 0:
        kwargs["arrival"] = draw(st.sampled_from(["poisson", "uniform"]))
    else:
        kwargs["think_time"] = draw(st.floats(min_value=0.0, max_value=1e4,
                                              allow_nan=False))
    placement = draw(st.sampled_from(["replicate", "hash", "mod"]))
    kwargs["placement"] = placement
    if placement != "replicate":
        kwargs["xshard"] = draw(st.floats(min_value=0.0, max_value=1.0,
                                          allow_nan=False))
    runtime = draw(st.sampled_from(["sim", "asyncio"]))
    kwargs["runtime"] = runtime
    allow_reshard = placement != "replicate" and runtime == "sim"
    if runtime == "asyncio":
        kwargs["host"] = draw(st.sampled_from(
            ["", "localhost", "127.0.0.1", "db-0.example.com"]))
        kwargs["port"] = draw(st.sampled_from([0, 7450, 60000]))
        kwargs["pace"] = draw(st.floats(min_value=0.01, max_value=10.0,
                                        allow_nan=False))
    names = ([f"a{i + 1}" for i in range(apps)]
             + [f"d{i + 1}" for i in range(dbs)]
             + [f"c{i + 1}" for i in range(clients)])
    kwargs["faults"] = draw(_fault_lists(names, allow_reshard, dbs))
    return Scenario(**kwargs)


@settings(max_examples=200, deadline=None)
@given(scenario=_scenarios())
def test_dsn_round_trips_over_the_full_parameter_surface(scenario):
    # Parse -> serialise -> parse must be lossless for every expressible
    # scenario, and the serialised form must be a fixed point: a DSN that
    # came out of to_dsn() re-serialises byte-identically (including the
    # faults= comma-list spill past the repeated-token threshold).
    dsn = scenario.to_dsn()
    reparsed = Scenario.from_dsn(dsn)
    assert reparsed == scenario
    assert reparsed.to_dsn() == dsn
