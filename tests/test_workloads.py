"""Tests for the bank and travel workloads and the closed-loop driver."""

import pytest

from repro import api
from repro.storage.kvstore import TransactionalKVStore
from repro.storage.xa import TransactionView
from repro.workload.bank import BankWorkload
from repro.workload.generator import ClosedLoop, OpenLoop, RunStatistics
from repro.workload.travel import TravelWorkload


def run_logic(workload, request, initial=None):
    """Run a workload's business logic against a scratch store; return (result, committed)."""
    store = TransactionalKVStore("db", initial_data=initial or workload.initial_data())
    store.begin("t1")
    view = TransactionView(store, "t1")
    result = workload.business_logic(request)(view)
    store.prepare("t1")
    store.commit("t1")
    return result, store.committed_snapshot()


# ------------------------------------------------------------------------ bank


def test_bank_initial_data_and_total_money():
    bank = BankWorkload(num_accounts=3, initial_balance=50)
    data = bank.initial_data()
    assert data == {"account:0": 50, "account:1": 50, "account:2": 50}
    assert bank.total_money(data) == 150


def test_bank_debit_credit_logic():
    bank = BankWorkload(num_accounts=2, initial_balance=100)
    result, committed = run_logic(bank, bank.debit(0, 30))
    assert result["status"] == "ok"
    assert committed["account:0"] == 70
    result, committed = run_logic(bank, bank.credit(1, 25))
    assert committed["account:1"] == 125


def test_bank_transfer_conserves_money():
    bank = BankWorkload(num_accounts=2, initial_balance=100)
    result, committed = run_logic(bank, bank.transfer(0, 1, 40))
    assert result["status"] == "ok"
    assert committed["account:0"] == 60
    assert committed["account:1"] == 140
    assert bank.total_money(committed) == 200


def test_bank_insufficient_funds_is_user_level_abort():
    bank = BankWorkload(num_accounts=1, initial_balance=10)
    result, committed = run_logic(bank, bank.debit(0, 50))
    assert result["status"] == "insufficient_funds"
    assert committed["account:0"] == 10  # nothing changed


def test_bank_overdraft_allowed_when_configured():
    bank = BankWorkload(num_accounts=1, initial_balance=10, allow_overdraft=True)
    result, committed = run_logic(bank, bank.debit(0, 50))
    assert result["status"] == "ok"
    assert committed["account:0"] == -40


def test_bank_random_requests_are_valid_and_deterministic():
    bank = BankWorkload(num_accounts=5)
    with pytest.raises(ValueError):
        BankWorkload(num_accounts=0)
    with pytest.raises(ValueError):
        bank.business_logic(bank.debit(0, 1).__class__("unknown_op", {}))


# ---------------------------------------------------------------------- travel


def test_travel_initial_inventory():
    travel = TravelWorkload(destinations=("PAR",), seats_per_flight=2,
                            rooms_per_hotel=2, cars_per_city=1)
    data = travel.initial_data()
    assert data["flight:PAR:seats"] == 2
    assert data["hotel:PAR:rooms"] == 2
    assert data["car:PAR:available"] == 1


def test_travel_booking_decrements_inventory_and_returns_reservation():
    travel = TravelWorkload(destinations=("PAR",))
    result, committed = run_logic(travel, travel.book("PAR", "alice"))
    assert result["status"] == "confirmed"
    assert result["traveller"] == "alice"
    assert result["flight"].startswith("FL-PAR")
    assert committed["flight:PAR:seats"] == travel.seats_per_flight - 1
    assert travel.bookings_made(committed) == 1


def test_travel_sold_out_is_regular_result_value():
    travel = TravelWorkload(destinations=("PAR",), seats_per_flight=0)
    result, committed = run_logic(travel, travel.book("PAR"))
    assert result["status"] == "sold_out"
    assert travel.bookings_made(committed) == 0


def test_travel_booking_without_car_keeps_cars():
    travel = TravelWorkload(destinations=("NYC",), cars_per_city=3)
    result, committed = run_logic(travel, travel.book("NYC", need_car=False))
    assert result["car"] is None
    assert committed["car:NYC:available"] == 3


def test_travel_unknown_destination_rejected():
    travel = TravelWorkload(destinations=("PAR",))
    with pytest.raises(ValueError):
        travel.book("MARS")
    with pytest.raises(ValueError):
        TravelWorkload(destinations=())


def test_travel_end_to_end_through_protocol():
    travel = TravelWorkload(destinations=("PAR",), seats_per_flight=2)
    deployment = api.build(api.Scenario(), workload=travel)
    issued = deployment.run_request(travel.book("PAR", "alice"))
    assert issued.delivered
    assert issued.result.value["status"] == "confirmed"
    assert deployment.db_servers["d1"].committed_value("flight:PAR:seats") == 1
    assert deployment.check_spec().ok


# -------------------------------------------------------------------- generator


def test_run_statistics_aggregation():
    stats = RunStatistics(latencies=[100.0, 200.0, 300.0], attempts=[1, 2, 1])
    assert stats.count == 3
    assert stats.mean_latency == pytest.approx(200.0)
    assert stats.max_latency == pytest.approx(300.0)
    assert stats.mean_attempts == pytest.approx(4 / 3)
    assert stats.percentile(0.0) == pytest.approx(100.0)
    assert stats.percentile(1.0) == pytest.approx(300.0)
    empty = RunStatistics()
    assert empty.mean_latency == 0.0 and empty.percentile(0.5) == 0.0


def test_run_statistics_percentiles_interpolate():
    stats = RunStatistics(latencies=[100.0, 200.0, 300.0, 400.0])
    assert stats.p50 == pytest.approx(250.0)  # between the middle samples
    assert stats.percentile(0.25) == pytest.approx(175.0)
    assert stats.p99 == pytest.approx(397.0)


def test_run_statistics_throughput():
    stats = RunStatistics(latencies=[10.0, 20.0], elapsed=500.0)
    assert stats.throughput == pytest.approx(4.0)  # 2 requests in 0.5 s
    assert RunStatistics().throughput == 0.0


def test_closed_loop_runs_requests_sequentially():
    bank = BankWorkload(num_accounts=1, initial_balance=100)
    deployment = api.build(api.Scenario(), workload=bank)
    stats = ClosedLoop().run(deployment, 3)    # the standard request debits 10
    assert stats.count == 3
    assert stats.undelivered == 0
    assert deployment.db_servers["d1"].committed_value("account:0") == 70
    assert stats.mean_latency > 0
    assert stats.throughput > 0
    assert set(stats.by_client) == {"c1"}
    assert stats.by_client["c1"].count == 3


def test_open_loop_uniform_arrivals_inject_at_rate():
    bank = BankWorkload(num_accounts=1, initial_balance=1_000)
    deployment = api.build(api.Scenario(), workload=bank)
    generator = OpenLoop(rate=10.0, arrival="uniform")  # one every 100 ms
    stats = generator.run(deployment, 4)
    assert stats.count == 4
    assert stats.undelivered == 0
    # Four uniform arrivals at 10/s span 400 ms plus the last service time.
    assert stats.elapsed >= 400.0
    assert deployment.db_servers["d1"].committed_value("account:0") == 960


def test_open_loop_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OpenLoop(rate=0.0)
    with pytest.raises(ValueError):
        OpenLoop(rate=5.0, arrival="bursty")


def test_serial_run_emits_full_parallel_and_saturation_schema():
    # The sharded kernel's ``parallel`` counters left with the kernel.
    bank = BankWorkload(num_accounts=1, initial_balance=100)
    deployment = api.build(api.Scenario(), workload=bank)
    stats = ClosedLoop().run(deployment, 2)
    assert not hasattr(stats, "parallel")
