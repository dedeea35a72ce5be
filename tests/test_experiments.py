"""Tests for the experiment table and its paper claims.

Each test runs its experiment once (module fixtures) and checks the claim
rows of :mod:`repro.experiments.catalog` that carry the paper's shape:
ordering of protocol latencies, the 16 %/23 % neighbourhood of the
overheads, the structure of the communication diagrams, the behaviour of the
four Figure 1 executions, the trends of the ablations and the fault sweep's
totals.
"""

import pytest

from repro import api
from repro.core.timing import DatabaseTiming
from repro.experiments import catalog
from repro.experiments.catalog import PAPER_FIGURE8


def measured(name):
    """Run one experiment; its rows and ``{claim label: (measured, holds)}``."""
    rows = catalog.run([name])[name]
    claims = catalog.EXPERIMENTS[name].claims + (catalog.EVERY_RUN_OK,)
    return rows, {claim.label: catalog.evaluate(claim, rows) for claim in claims}


def assert_hold(verdicts, *labels):
    for label in labels:
        value, holds = verdicts[label]
        assert holds, f"{label}: measured {value}"


def test_every_experiment_claim_holds():
    """``python -m repro experiment`` with no name: every claim row holds."""
    tables = catalog.run(workers=2)
    assert list(tables) == list(catalog.EXPERIMENTS)
    for name, rows in tables.items():
        text, verdicts = catalog.render(name, rows)
        assert verdicts and all(verdicts), text
        assert "FAIL" not in text


# ------------------------------------------------------------------ calibration


def test_paper_figure8_numbers_are_internally_consistent():
    for protocol, row in PAPER_FIGURE8.items():
        components = sum(value for key, value in row.items() if key != "total")
        assert components == pytest.approx(row["total"], abs=0.3), protocol


def test_calibrated_database_timing_reproduces_baseline_components():
    timing = DatabaseTiming()
    baseline = PAPER_FIGURE8["baseline"]
    # Figure 8's commit and prepare columns: CPU plus one forced log write.
    assert timing.commit_cpu + timing.forced_write == pytest.approx(baseline["commit"])
    assert timing.prepare_cpu + timing.forced_write == pytest.approx(
        PAPER_FIGURE8["AR"]["prepare"])
    assert timing.sql == pytest.approx(baseline["SQL"])
    assert (timing.start, timing.end) == (baseline["start"], baseline["end"])


def test_paper_overheads_derive_from_the_figure8_data():
    assert catalog.paper_overhead("baseline") == 0.0
    assert catalog.paper_overhead("AR") == pytest.approx(0.16, abs=0.005)
    assert catalog.paper_overhead("2PC") == pytest.approx(0.23, abs=0.005)
    # With the paper's SQL row set to the baseline's 187.0 ms.
    assert catalog.paper_overhead("AR", same_sql=True) == pytest.approx(0.132, abs=0.0005)
    assert catalog.paper_overhead("2PC", same_sql=True) == pytest.approx(0.209, abs=0.0005)


# --------------------------------------------------------------------- figure 8


@pytest.fixture(scope="module")
def figure8():
    return measured("figure8")


def test_figure8_totals_close_to_paper(figure8):
    _, verdicts = figure8
    assert_hold(verdicts, "baseline total, ms", "AR total, ms", "2PC total, ms")


def test_figure8_cost_of_reliability_ordering_and_magnitude(figure8):
    _, verdicts = figure8
    assert_hold(verdicts, "baseline < AR < 2PC total",
                "AR cost of reliability", "2PC cost of reliability",
                "AR cost of reliability, paper SQL 187.0",
                "2PC cost of reliability, paper SQL 187.0")
    assert verdicts["AR cost of reliability"][0] == pytest.approx(0.16, abs=0.06)
    assert verdicts["2PC cost of reliability"][0] == pytest.approx(0.23, abs=0.06)


def test_figure8_component_shape(figure8):
    rows, verdicts = figure8
    # The baseline has no prepare phase and no logging; AR replaces the 2PC
    # forced logs by cheaper replicated register writes.
    assert_hold(verdicts, "baseline prepare + log-start + log-outcome, ms",
                "AR prepare, ms", "AR log-start, ms", "AR log-outcome, ms",
                "2PC log-start, ms", "2PC log-outcome, ms",
                "SQL spread over the columns, ms")
    assert rows["2PC"]["prepare"] > 0


def test_figure8_report_rendering(figure8):
    rows, _ = figure8
    text, verdicts = catalog.render("figure8", rows)
    header = text.splitlines()[2].split()
    assert header == ["run", "start", "end", "commit", "prepare", "SQL", "log-start",
                      "log-outcome", "other", "total"]
    assert "AR cost of reliability, paper SQL 187.0" in text
    assert "193.2 / 190.6" in text  # the note that explains the SQL row
    assert all(verdicts)


def test_figure8_parallel_workers_match_serial(figure8):
    rows, _ = figure8
    parallel = catalog.run(["figure8"], workers=3)["figure8"]
    assert parallel == rows
    assert catalog.render("figure8", parallel) == catalog.render("figure8", rows)


# --------------------------------------------------------------------- figure 7


@pytest.fixture(scope="module")
def figure7():
    return measured("figure7")


def test_figure7_structure_matches_paper(figure7):
    _, verdicts = figure7
    assert_hold(verdicts, "baseline Prepare", "baseline CommitOnePhase",
                "2PC Prepare", "2PC Vote", "AR Prepare", "AR Vote",
                "PB PBStart", "PB PBOutcome", "AR PBStart",
                "AR Consensus (two register writes)", "Consensus outside AR")


def test_figure7_message_counts(figure7):
    # The baseline exchanges the fewest protocol messages; every reliable
    # protocol adds the voting round; primary-backup adds the replication
    # round-trips on top.
    _, verdicts = figure7
    assert_hold(verdicts, "protocol msgs: baseline < 2PC <= AR <= PB")


def test_figure7_latency_ordering(figure7):
    _, verdicts = figure7
    assert_hold(verdicts, "latency: baseline < AR < 2PC")


def test_figure7_rendering(figure7):
    rows, verdicts = figure7
    text, _ = catalog.render("figure7", rows)
    header, *lines = text.split("\n\n")[1].splitlines()
    assert header.split() == ["run", *catalog.FIGURE7_TYPES, "Consensus", "protocol",
                              "msgs", "messages", "latency"]
    assert [line.split()[0] for line in lines] == ["baseline", "2PC", "PB", "AR"]
    # AR's messages are every message it sent: 8 protocol messages and the
    # 8 consensus messages of its two register writes.
    assert (rows["AR"]["Consensus"], rows["AR"]["messages"]) == (8, 16)
    assert (rows["2PC"]["Consensus"], rows["2PC"]["messages"]) == (0, 8)
    assert_hold(verdicts, "2PC messages", "AR messages")
    # The sequence listing is part of the output.
    assert "== AR ==" in text and "c1 -> a1    Request" in text
    assert "a1 -> c1    Result" in text


# --------------------------------------------------------------------- figure 1


@pytest.fixture(scope="module")
def figure1():
    return measured("figure1")


def test_figure1_all_scenarios_safe_and_delivered(figure1):
    rows, verdicts = figure1
    assert_hold(verdicts, "every run delivered and kept the specification")
    assert list(rows) == ["a", "b", "c", "d"]
    assert all(row["delivered"] == 1 and row["spec"] for row in rows.values())


def test_figure1_scenario_a_failure_free_commit(figure1):
    _, verdicts = figure1
    assert_hold(verdicts, "(a) attempts", "(a) aborted results", "(a) the primary answers",
                "runs not debiting the account exactly once")


def test_figure1_scenario_b_failure_free_abort_then_retry(figure1):
    rows, verdicts = figure1
    # The first intermediate result aborts; exactly-once despite the abort.
    assert_hold(verdicts, "(b) aborted results", "(b) attempts")
    assert rows["b"]["balance"] == 100_000 - 10


def test_figure1_scenario_c_failover_with_commit(figure1):
    rows, verdicts = figure1
    # The crashed primary's result is committed and a backup answers.
    assert_hold(verdicts, "(c) attempts", "(c) aborted results", "(c) a backup answers")
    assert rows["c"]["balance"] == 100_000 - 10


def test_figure1_scenario_d_failover_with_abort(figure1):
    rows, verdicts = figure1
    # A cleaner aborts the orphaned result; the retry commits exactly once.
    assert_hold(verdicts, "(d) aborted results", "(d) a backup answers")
    assert rows["d"]["balance"] == 100_000 - 10


# -------------------------------------------------------------------- ablations


def test_asynchrony_sweep_shows_primary_backup_to_active_spectrum():
    rows, verdicts = measured("asynchrony")
    # Reliable suspicions: one server terminates, nothing aborts.  A false
    # suspicion makes a second server clean and terminate the same results
    # (Section 5's concurrency) -- extra work, never unsafety.
    assert [row["terminators"] for row in rows.values()] == [1, 1, 2, 2]
    assert all(holds for _, holds in verdicts.values())


def test_log_cost_sweep_shows_crossover():
    rows, verdicts = measured("log_cost")
    # With free forced logs 2PC beats AR (fewer messages); at the paper's
    # 12.5 ms the two forced writes make 2PC slower -- the crossover the
    # paper's Appendix 3 argues about.  AR does not depend on ``log`` and
    # runs once.
    assert list(rows) == ["AR", "2PC log=0", "2PC log=2", "2PC log=5", "2PC log=12.5",
                          "2PC log=25"]
    assert_hold(verdicts, "2PC faster than AR at log=0", "AR faster than 2PC at log=12.5",
                "crossover forced-log latency, ms", "2PC latency per ms of forced log")


def test_scaling_sweep_latency_flat_but_messages_grow():
    _, verdicts = measured("scaling")
    # Latency is governed by the majority round trip, not the group size;
    # traffic grows with the replication degree.
    assert_hold(verdicts, "every run delivered and kept the specification",
                "latency spread over n, ms", "messages grow with n")


@pytest.fixture(scope="module")
def fault_sweep():
    return measured("fault_sweep")


def test_fault_sweep_all_safe(fault_sweep):
    """E6's 200 schedules without client crashes: every run delivers and no
    property is violated (the counts are the old harness's at seeds 0-199)."""
    rows, verdicts = fault_sweep
    assert len(rows) == 400
    assert all(verdict for _, verdict in verdicts.values()), verdicts
    assert verdicts["random faults: runs delivered"] == (200, True)
    assert verdicts["random faults: aborted results"] == (30, True)
    assert verdicts["random faults: violations"] == (0, True)
    text, _ = catalog.render("fault_sweep", rows)
    assert "random faults                   200        200       30           0" in text


def test_fault_sweep_with_client_crashes_all_safe(fault_sweep):
    """The client itself may crash: at-most-once must still hold, and a run
    whose client crashed may go undelivered without failing the sweep."""
    rows, verdicts = fault_sweep
    group = {label: row for label, row in rows.items()
             if label.startswith("random faults, client crashes/")}
    assert len(group) == 200
    assert sum(row["delivered"] for row in group.values()) == 163
    assert verdicts["random faults, client crashes: aborted results"] == (20, True)
    assert verdicts["random faults, client crashes: violations"] == (0, True)
    assert verdicts["every run delivered and kept the specification"] == (True, True)


def test_fault_sweep_parallel_workers_match_serial(fault_sweep):
    rows, _ = fault_sweep
    assert catalog.run(["fault_sweep"], workers=2)["fault_sweep"] == rows


def test_a_run_that_crashes_its_client_needs_the_specification_only():
    """EVERY_RUN_OK excuses an undelivered request when a fault targets a
    client (drive's own rule), never a violated property."""
    crashed = api.run_scenario(f"{catalog.FAILOVER_DSN}&fault=crash@1:c1")
    assert crashed.delivered == 0 and crashed.spec.ok
    assert catalog._failures(crashed) == []
    lost = api.run_scenario(f"{catalog.FAILOVER_DSN}&fault=crash@1:a1&fault=crash@1:a2")
    assert lost.delivered == 0
    assert catalog._failures(lost)[0] == "0 of 1 requests delivered"


# -------------------------------------------------------------------- scale-out


@pytest.fixture(scope="module")
def scaleout():
    return measured("scaleout")


def test_scaleout_partitioned_tier_scales_and_cross_shard_costs(scaleout):
    """Committed throughput at a fixed offered load while the data tier grows."""
    _, verdicts = scaleout
    assert_hold(verdicts, "every run delivered and kept the specification",
                "speed-up of d=4 over d=1 at xshard=0")
    # The cross-shard curve sits at or below the single-shard curve: every
    # cross-shard transaction occupies two shards.
    assert_hold(verdicts, *(f"d={d}: xshard=0.25 over xshard=0 throughput"
                            for d in (2, 4, 8)))


def test_scaleout_parallel_workers_match_serial(scaleout):
    rows, _ = scaleout
    assert catalog.run(["scaleout"], workers=4)["scaleout"] == rows

