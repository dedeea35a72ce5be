"""Partitioned data tier: placement, participant routing, DSN grammar.

Covers the sharding layer end to end: the key-placement map, the shard DSN
parameters (``placement``, ``xshard``) and their round-trip, participant-set
routing through all four protocol stacks, shard-keyed initial data, storage
ownership assertions, per-shard statistics, the S.1 confinement property and
the serial-vs-parallel sweep determinism contract.
"""

import pytest

from repro import api
from repro.core.sharding import (
    PLACEMENT_HASH,
    PLACEMENT_MOD,
    PLACEMENT_REPLICATE,
    Sharding,
    shard_key,
)
from repro.storage.kvstore import ShardOwnershipError, TransactionalKVStore
from repro.workload.bank import BankWorkload
from repro.workload.travel import TravelWorkload


# ---------------------------------------------------------------- placement


def test_hash_tags_select_the_routed_substring():
    assert shard_key("account:{7}") == "7"
    assert shard_key("flight:{PAR}:seats") == "PAR"
    assert shard_key("plain-key") == "plain-key"


def test_replicate_placement_owns_everything_everywhere():
    sharding = Sharding(("d1", "d2"), PLACEMENT_REPLICATE)
    assert not sharding.partitioned
    assert sharding.owner("account:{1}") is None
    assert sharding.owns("d1", "x") and sharding.owns("d2", "x")
    assert sharding.participants(["a", "b"]) == ()
    assert sharding.shard_data("d2", {"a": 1}) == {"a": 1}
    assert sharding.owner_predicate("d1") is None


def test_hash_placement_is_deterministic_and_total():
    sharding = Sharding(("d1", "d2", "d3"), PLACEMENT_HASH)
    owners = {sharding.owner(f"account:{{{i}}}") for i in range(64)}
    assert owners == {"d1", "d2", "d3"}  # 64 keys cover 3 shards
    for i in range(64):
        key = f"account:{{{i}}}"
        assert sharding.owner(key) == sharding.owner(key)
        assert sharding.owns(sharding.owner(key), key)


def test_mod_placement_routes_by_trailing_integer():
    sharding = Sharding(("d1", "d2", "d3", "d4"), PLACEMENT_MOD)
    assert sharding.owner("account:{0}") == "d1"
    assert sharding.owner("account:{5}") == "d2"
    assert sharding.owner("account:{11}") == "d4"


def test_colocated_keys_share_a_shard():
    sharding = Sharding(("d1", "d2", "d3"), PLACEMENT_HASH)
    travel = TravelWorkload(shard_tags=True)
    for city in travel.destinations:
        owners = {sharding.owner(key) for key in travel.city_keys(city)}
        assert len(owners) == 1, city


def test_participants_are_in_shard_order():
    sharding = Sharding(("d1", "d2", "d3", "d4"), PLACEMENT_MOD)
    participants = sharding.participants(["account:{3}", "account:{0}", "account:{7}"])
    assert participants == ("d1", "d4")


def test_shard_data_splits_initial_data():
    sharding = Sharding(("d1", "d2"), PLACEMENT_MOD)
    data = {"account:{0}": 10, "account:{1}": 20, "account:{2}": 30}
    assert sharding.shard_data("d1", data) == {"account:{0}": 10, "account:{2}": 30}
    assert sharding.shard_data("d2", data) == {"account:{1}": 20}


# -------------------------------------------------------------- DSN grammar


def test_shard_dsn_round_trips():
    dsn = "etx://a3.d8.c64?xshard=0.1&placement=hash"
    scenario = api.Scenario.from_dsn(dsn)
    assert scenario.num_db_servers == 8
    assert scenario.placement == PLACEMENT_HASH
    assert scenario.xshard == 0.1
    assert api.Scenario.from_dsn(scenario.to_dsn()) == scenario
    assert "placement=hash" in scenario.to_dsn()
    assert "xshard=0.1" in scenario.to_dsn()


def test_default_placement_is_replicated_and_unserialised():
    scenario = api.Scenario.from_dsn("etx://a3.d4.c1")
    assert scenario.placement == PLACEMENT_REPLICATE
    assert "placement" not in scenario.to_dsn()


def test_xshard_requires_partitioned_placement():
    with pytest.raises(api.ScenarioError):
        api.Scenario.from_dsn("etx://a3.d4.c1?xshard=0.5")


def test_xshard_range_is_validated():
    with pytest.raises(api.ScenarioError):
        api.Scenario.from_dsn("etx://a3.d4.c1?placement=hash&xshard=1.5")


def test_unknown_placement_is_rejected():
    with pytest.raises(api.ScenarioError):
        api.Scenario.from_dsn("etx://a3.d4.c1?placement=roundrobin")


def test_sweep_axes_accept_xshard_and_placement():
    sweep = api.Sweep.over("etx://a3.c2?workload=bank&placement=hash",
                           xshard=[0.0, 0.5], d=[1, 2])
    scenarios = sweep.expand()
    assert len(scenarios) == 4
    assert {s.xshard for s in scenarios} == {0.0, 0.5}
    assert {s.num_db_servers for s in scenarios} == {1, 2}


# ------------------------------------------------------------------ storage


def test_kvstore_rejects_foreign_keys():
    store = TransactionalKVStore("d1", owns_key=lambda key: key.startswith("mine"),
                                 initial_data={"mine:1": 1})
    store.begin("t1")
    store.write("t1", "mine:2", 2)
    with pytest.raises(ShardOwnershipError):
        store.write("t1", "theirs:1", 3)
    with pytest.raises(ShardOwnershipError):
        store.read("t1", "theirs:1")
    assert store.owns("mine:9") and not store.owns("theirs:9")


def test_misrouted_request_aborts_instead_of_half_committing():
    """A request whose participant set misses an owner aborts everywhere."""
    scenario = api.Scenario(protocol="etx", num_db_servers=2, placement="mod",
                            workload="bank")
    system = api.build(scenario)
    workload = system.workload.instance
    # account 0 lives on d1 under mod placement; route the debit to d2 only.
    request = workload.debit(0, 10, participants=("d2",))
    issued = system.issue(request)
    system.run(until=30_000.0)
    assert not issued.delivered
    assert issued.aborted_results  # the protocol aborted the misrouted result
    report = system.check_spec(check_termination=False)
    assert report.ok, report.summary()


def test_unknown_participant_is_rejected_at_issue():
    system = api.build(api.Scenario(protocol="etx", num_db_servers=2,
                                    placement="hash", workload="bank"))
    workload = system.workload.instance
    with pytest.raises(ValueError):
        system.issue(workload.debit(0, 10, participants=("d9",)))


# ------------------------------------------------------------------ routing


ALL_PROTOCOLS = list(api.PROTOCOLS)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_single_shard_requests_only_touch_their_shard(protocol):
    scenario = api.Scenario(protocol=protocol, num_db_servers=4,
                            placement="hash", workload="bank", seed=2)
    result = api.run_scenario(scenario, requests=4)
    assert result.ok, result.spec.summary()
    stats = result.statistics
    # Single-shard traffic: total commits equal delivered requests (each
    # transaction commits at exactly one shard) and spread over shards.
    assert sum(db.commits for db in stats.by_database.values()) == result.delivered
    assert sum(1 for db in stats.by_database.values() if db.commits) >= 2


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_cross_shard_requests_commit_atomically(protocol):
    scenario = api.Scenario(protocol=protocol, num_db_servers=2,
                            placement="mod", workload="bank", seed=4,
                            xshard=1.0)
    system = api.build(scenario)
    workload = system.workload.instance
    total_before = sum(workload.initial_data().values())
    for _ in range(3):
        issued = system.run_request(system.standard_request())
        assert issued.delivered
    report = system.check_spec()
    assert report.ok, report.summary()
    committed = {}
    for db in system.db_servers.values():
        committed.update(db.store.committed_snapshot())
    assert workload.total_money(committed) == total_before


def test_spec_flags_commits_outside_the_participant_set():
    """S.1: an execution or commit at a non-participant is a violation."""
    from repro.core.spec import SpecMonitor
    from repro.sim.tracing import TraceRecorder

    trace = TraceRecorder()
    monitor = SpecMonitor.attach(trace, ["d1", "d2"], ["c1"])
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1",
                 result="x", participants=["d1"])
    trace.record("db_vote", "d1", j=("c1", 1), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 1), outcome="commit")
    clean = monitor.report(check_termination=False)
    assert clean.ok, clean.summary()
    # Now forge the same result leaking onto d2, outside its participant set.
    trace.record("db_execute", "d2", j=("c1", 1), request_id="req-1", ok=True)
    trace.record("db_vote", "d2", j=("c1", 1), vote="yes")
    trace.record("db_decide", "d2", j=("c1", 1), outcome="commit")
    leaked = monitor.report(check_termination=False)
    assert not leaked.ok
    assert leaked.violated("S.1")


def test_etx_concurrent_requests_from_many_clients_stay_spec_clean():
    """The concurrent per-request handlers keep distinct results independent."""
    scenario = api.Scenario(protocol="etx", num_db_servers=4, num_clients=6,
                            placement="hash", workload="bank", seed=7,
                            rate=30.0, arrival="uniform")
    result = api.run_scenario(scenario, requests=3)
    assert result.ok, result.spec.summary()
    assert result.delivered == 18


def test_a_recovered_shards_ready_restarts_only_its_own_transaction():
    """Two transactions on disjoint shards wait in ``compute()`` on one app
    server; ``d1`` crashes and recovers.  Its ``Ready`` is filed under
    ``("Ready", "d1")``: the ``d1`` transaction resends its ``Execute`` the
    moment the ``Ready`` lands, the ``d2`` transaction never takes it."""
    system = api.build(api.Scenario(protocol="etx", num_db_servers=2, num_clients=2,
                                    placement="mod", workload="bank", seed=1))
    sim = system.sim
    bank = system.workload.instance
    # The d2 transaction's handler is spawned first: it would win a tie.
    on_d2 = system.issue(bank.debit(1, 10, participants=("d2",)), "c2")
    on_d1 = system.issue(bank.debit(0, 10, participants=("d1",)), "c1")
    sim.run(until=50.0)  # both executes are being computed at their shard
    assert system.trace.count("db_execute") == 0
    system.db_servers["d1"].crash_for(20.0)
    sim.run(until=5000.0)

    assert on_d1.delivered and on_d2.delivered
    assert on_d1.attempts == on_d2.attempts == 1
    ready = [event.time for event in system.trace.select("msg_deliver", process="a1")
             if event.data["msg_type"] == "Ready"]
    executes = {shard: [event.time for event in system.trace.select("msg_send", process="a1")
                        if event.data["msg_type"] == "Execute"
                        and event.data["destination"] == shard]
                for shard in ("d1", "d2")}
    assert len(ready) == 1 and ready[0] < 100.0
    assert executes["d1"] == [executes["d2"][0], ready[0]]
    assert len(executes["d2"]) == 1
    assert system.app_servers["a1"].mailbox_size == 0
    assert system.check_spec().ok


# ------------------------------------------------------------- determinism


def test_same_dsn_and_seed_give_byte_identical_sweep_rows():
    """Acceptance: serial and parallel executions of the shard grid match."""
    sweep = api.Sweep.over("etx://a3.c2?workload=bank&placement=hash&seed=11",
                           d=[1, 2, 4], xshard=[0.0, 0.5])
    serial = api.run_sweep(sweep, requests=1, workers=1)
    parallel = api.run_sweep(sweep, requests=1, workers=3)
    assert serial.to_table() == parallel.to_table()
    assert serial.ok


def test_cross_shard_transfers_require_overdraft():
    """The funds check cannot span shards; refusing loudly beats minting money."""
    bank = BankWorkload(num_accounts=8, shard_tags=True, allow_overdraft=False)
    sharding = Sharding(("d1", "d2"), PLACEMENT_MOD)
    with pytest.raises(ValueError, match="allow_overdraft"):
        bank.sharded_requests(sharding, cross_shard_fraction=0.5, seed=0)
    # Single-shard streams over an overdraft-checking bank stay fine.
    factory = bank.sharded_requests(sharding, cross_shard_fraction=0.0, seed=0)
    assert factory().participants


def test_database_counters_count_transactions_not_decide_retransmissions():
    """Lost acknowledgements re-send Decide; the counters must not inflate."""
    result = api.run_scenario("etx://a2.d2.c2?loss=0.2&seed=3&workload=bank"
                              "&placement=hash", requests=3)
    assert result.ok, result.spec.summary()
    stats = result.statistics
    total = sum(db.commits + db.aborts for db in stats.by_database.values())
    # Single-shard traffic: every result decides at exactly one shard, so the
    # distinct-transaction count is bounded by results (delivered + aborted
    # intermediate ones), no matter how many times a Decide was re-applied.
    assert total <= result.delivered + stats.aborted_results


def test_sharded_request_stream_is_deterministic():
    bank = BankWorkload(num_accounts=32, shard_tags=True, allow_overdraft=True)
    sharding = Sharding(("d1", "d2", "d3"), PLACEMENT_HASH)
    first = bank.sharded_requests(sharding, 0.4, seed=9)
    second = bank.sharded_requests(sharding, 0.4, seed=9)
    for _ in range(20):
        a, b = first(), second()
        assert (a.operation, a.params, a.participants) == \
            (b.operation, b.params, b.participants)
        assert a.participants  # always stamped on a partitioned tier
