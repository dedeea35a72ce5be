"""Tests for the figure/table reproduction harnesses and ablations.

These tests assert the *shape* claims of the paper hold in the reproduction:
ordering of protocol latencies, the 16 %/23 % neighbourhood of the overheads,
the structure of the communication diagrams, the behaviour of the four
Figure 1 executions, and the qualitative trends of the ablations.
"""

import pytest

from repro.experiments import (calibration, fault_sweep, figure1, figure7,
                               figure8, scaleout)
from repro.experiments.ablations import asynchrony_sweep, log_cost_sweep, scaling_sweep


# ------------------------------------------------------------------ calibration


def test_paper_figure8_numbers_are_internally_consistent():
    for protocol, row in calibration.PAPER_FIGURE8.items():
        components = sum(value for key, value in row.items() if key != "total")
        assert components == pytest.approx(row["total"], abs=0.3), protocol


def test_calibrated_database_timing_reproduces_baseline_components():
    timing = calibration.paper_database_timing()
    # Figure 8's commit and prepare columns: CPU plus one forced log write.
    assert timing.commit_cpu + timing.forced_write == pytest.approx(18.6)
    assert timing.prepare_cpu + timing.forced_write == pytest.approx(19.0)
    assert timing.sql == pytest.approx(187.0)


# --------------------------------------------------------------------- figure 8


@pytest.fixture(scope="module")
def figure8_report():
    return figure8.run(requests_per_protocol=3)


def test_figure8_totals_close_to_paper(figure8_report):
    for protocol in ("baseline", "AR", "2PC"):
        measured = figure8_report.table.column(protocol).total
        paper = calibration.PAPER_FIGURE8[protocol]["total"]
        assert measured == pytest.approx(paper, rel=0.05), protocol


def test_figure8_cost_of_reliability_ordering_and_magnitude(figure8_report):
    overheads = figure8_report.overheads()
    assert overheads["baseline"] == 0.0
    assert 0.0 < overheads["AR"] < overheads["2PC"]
    assert overheads["AR"] == pytest.approx(0.16, abs=0.06)
    assert overheads["2PC"] == pytest.approx(0.23, abs=0.06)
    assert figure8_report.shape_holds()


def test_figure8_component_shape(figure8_report):
    baseline = figure8_report.table.column("baseline")
    ar = figure8_report.table.column("AR")
    twopc = figure8_report.table.column("2PC")
    # The baseline has no prepare phase and no logging; AR replaces the 2PC
    # forced logs by cheaper replicated register writes.
    assert baseline.component("prepare") == 0.0
    assert baseline.component("log-start") == 0.0
    assert ar.component("prepare") > 0 and twopc.component("prepare") > 0
    assert 0 < ar.component("log-start") < twopc.component("log-start")
    assert 0 < ar.component("log-outcome") < twopc.component("log-outcome")
    assert ar.component("SQL") == twopc.component("SQL") == baseline.component("SQL")


def test_figure8_report_rendering(figure8_report):
    table = figure8_report.to_table()
    assert "cost of rel." in table
    comparison = figure8_report.compare_with_paper()
    assert "baseline" in comparison and "2PC" in comparison


# --------------------------------------------------------------------- figure 7


@pytest.fixture(scope="module")
def figure7_report():
    return figure7.run()


def test_figure7_structure_matches_paper(figure7_report):
    assert figure7_report.expected_structure_holds()


def test_figure7_message_counts(figure7_report):
    counts = {label: len(profile.steps)
              for label, profile in figure7_report.comparison.profiles.items()}
    # The baseline exchanges the fewest protocol messages; every reliable
    # protocol adds the voting round; primary-backup adds the replication
    # round-trips on top.
    assert counts["baseline"] < counts["2PC"] <= counts["AR"] <= counts["PB"]


def test_figure7_latency_ordering(figure7_report):
    latencies = figure7_report.latencies
    assert latencies["baseline"] < latencies["AR"] < latencies["2PC"]


def test_figure7_rendering(figure7_report):
    header, *rows = figure7_report.to_table().splitlines()
    assert header.split() == ["protocol", "Request", "Execute", "Prepare", "Vote", "Decide",
                              "AckDecide", "CommitOnePhase", "Result", "Consensus", "total"]
    table = {row.split()[0]: dict(zip(header.split(), row.split())) for row in rows}
    assert list(table) == ["baseline", "2PC", "PB", "AR"]
    # AR's total is every message it sent: 8 protocol messages and the 8
    # consensus messages of its two register writes.
    assert table["AR"]["Consensus"] == "8" and table["AR"]["total"] == "16"
    assert table["2PC"]["Consensus"] == "0" and table["2PC"]["total"] == "8"
    diagrams = figure7_report.sequence_diagrams()
    assert "Request" in diagrams and "Result" in diagrams


# --------------------------------------------------------------------- figure 1


@pytest.fixture(scope="module")
def figure1_report():
    return figure1.run()


def test_figure1_all_scenarios_safe_and_delivered(figure1_report):
    assert figure1_report.all_spec_ok()
    for name in "abcd":
        assert figure1_report.scenarios[name].delivered, name


def test_figure1_scenario_a_failure_free_commit(figure1_report):
    scenario = figure1_report.scenarios["a"]
    assert scenario.attempts == 1
    assert scenario.aborted_results == []
    assert scenario.answered_by == {"a1"}
    assert scenario.committed_balance == 100_000 - 10


def test_figure1_scenario_b_failure_free_abort_then_retry(figure1_report):
    scenario = figure1_report.scenarios["b"]
    assert scenario.aborted_results, "the first intermediate result must abort"
    assert scenario.attempts >= 2
    assert scenario.committed_balance == 100_000 - 10  # exactly-once despite the abort


def test_figure1_scenario_c_failover_with_commit(figure1_report):
    scenario = figure1_report.scenarios["c"]
    assert scenario.attempts == 1          # the crashed primary's result is committed
    assert scenario.aborted_results == []
    assert scenario.answered_by - {"a1"}, "a backup must answer the client"
    assert scenario.committed_balance == 100_000 - 10


def test_figure1_scenario_d_failover_with_abort(figure1_report):
    scenario = figure1_report.scenarios["d"]
    assert scenario.aborted_results, "the orphaned result must be aborted by a cleaner"
    assert scenario.answered_by - {"a1"}
    assert scenario.committed_balance == 100_000 - 10  # the retry commits exactly once


# -------------------------------------------------------------------- ablations


def test_asynchrony_sweep_shows_primary_backup_to_active_spectrum():
    points = {point.label: point for point in asynchrony_sweep()}
    quiet = points["patient client, reliable FD"]
    noisy = points["impatient client, false suspicion"]
    assert quiet.distinct_claimers == 1
    assert quiet.aborted_results == 0
    # Unreliable suspicions / impatience cause extra work (aborted intermediate
    # results and/or several servers claiming results) but never unsafety.
    assert noisy.aborted_results + noisy.distinct_claimers > quiet.aborted_results + 1
    assert all(point.spec_ok for point in points.values())
    assert all(point.delivered for point in points.values())


def test_log_cost_sweep_shows_crossover():
    points = log_cost_sweep(latencies=[0.0, 12.5], requests=1)
    cheap_log, paper_log = points
    # With free forced logs 2PC beats AR (fewer messages); at the paper's
    # 12.5 ms the two forced writes make 2PC slower -- the crossover the
    # paper's Appendix 3 argues about.
    assert not cheap_log.ar_wins
    assert paper_log.ar_wins


def test_scaling_sweep_latency_flat_but_messages_grow():
    points = scaling_sweep(degrees=[1, 3, 5], requests=1)
    latencies = [point.mean_latency for point in points]
    messages = [point.total_messages for point in points]
    assert all(point.delivered for point in points)
    # Latency is governed by the majority round trip, not the group size.
    assert max(latencies) - min(latencies) < 10.0
    # Traffic grows with the replication degree.
    assert messages == sorted(messages) and messages[0] < messages[-1]


def test_fault_sweep_all_safe():
    result = fault_sweep.run(num_runs=6, seed=1)
    assert result.runs == 6
    assert result.all_safe, result.violations
    assert result.delivered == 6
    assert "6 runs" in result.summary()


def test_fault_sweep_with_client_crashes_all_safe():
    """The client itself may crash: at-most-once must still hold."""
    result = fault_sweep.run(num_runs=6, seed=9, allow_client_crash=True)
    assert result.all_safe, result.violations


def test_figure8_parallel_workers_match_serial(figure8_report):
    parallel = figure8.run(requests_per_protocol=3, workers=3)
    assert parallel.to_table() == figure8_report.to_table()


def test_fault_sweep_parallel_workers_match_serial():
    serial = fault_sweep.run(num_runs=4, seed=2, workers=1)
    parallel = fault_sweep.run(num_runs=4, seed=2, workers=4)
    assert serial == parallel


# -------------------------------------------------------------------- scale-out


def test_scaleout_partitioned_tier_scales_and_cross_shard_costs():
    """Committed throughput at a fixed offered load while the data tier grows."""
    db_counts = (1, 2, 4)
    report = scaleout.run(db_counts=db_counts, xshard_fractions=(0.0, 0.25),
                          rate=16.0, clients=12, requests=4, seed=0, workers=1)
    assert report.ok, "some grid point lost requests or violated the spec"
    assert report.speedup(0.0)[4] >= 2.5
    # The cross-shard curve sits at or below the single-shard curve: every
    # cross-shard transaction occupies two shards.
    for d in db_counts[1:]:
        single = [p for p in report.curve(0.0) if p.db_servers == d][0]
        crossed = [p for p in report.curve(0.25) if p.db_servers == d][0]
        assert crossed.throughput <= single.throughput * 1.05


def test_scaleout_parallel_workers_match_serial():
    grid = dict(db_counts=(1, 2), xshard_fractions=(0.0, 0.25),
                rate=16.0, clients=8, requests=2, seed=5)
    assert scaleout.run(workers=4, **grid).points == scaleout.run(workers=1, **grid).points
