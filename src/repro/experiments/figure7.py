"""Experiment E2 -- reproduce Figure 7 (communication steps in failure-free runs).

Figure 7 contrasts the message-sequence diagrams of the four protocols in a
failure-free execution: the unreliable baseline, presumed-nothing 2PC,
primary-backup replication, and the paper's asynchronous replication.  The
experiment runs one request through each stack and extracts the communication
profile (ordered message sequence, counts per message type, client-visible
steps) from the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import api
from repro.api import sweep as sweep_api
from repro.experiments import calibration
from repro.metrics.steps import CommunicationProfile, StepComparison, StreamingProfile


@dataclass
class Figure7Report:
    """The reproduced Figure 7: one communication profile per protocol."""

    comparison: StepComparison
    latencies: dict[str, float] = field(default_factory=dict)

    def profile(self, protocol: str) -> CommunicationProfile:
        """The message profile of one protocol."""
        return self.comparison.profiles[protocol]

    def to_table(self) -> str:
        """Per-protocol message counts by type."""
        return self.comparison.to_table()

    def sequence_diagrams(self) -> str:
        """Concatenated message-sequence listings (the content of the figure)."""
        return "\n\n".join(profile.sequence_diagram()
                           for profile in self.comparison.profiles.values())

    def expected_structure_holds(self) -> bool:
        """Qualitative checks on the four diagrams:

        * the baseline exchanges no Prepare/Vote messages,
        * 2PC and AR and PB all run the voting phase,
        * only PB exchanges the start/outcome replication messages,
        * AR (with its in-memory replication) sends no more client-visible
          protocol messages than 2PC plus the replication traffic.
        """
        baseline = self.profile("baseline")
        twopc = self.profile("2PC")
        primary_backup = self.profile("PB")
        asynchronous = self.profile("AR")
        checks = [
            baseline.count("Prepare") == 0,
            baseline.count("CommitOnePhase") >= 1,
            twopc.count("Prepare") >= 1 and twopc.count("Vote") >= 1,
            asynchronous.count("Prepare") >= 1 and asynchronous.count("Vote") >= 1,
            primary_backup.count("PBStart") >= 1 and primary_backup.count("PBOutcome") >= 1,
            asynchronous.count("PBStart") == 0,
            asynchronous.consensus_messages > 0,
            baseline.consensus_messages == 0,
        ]
        return all(checks)


def _profile_stack(job: tuple[str, api.Scenario]
                   ) -> tuple[str, CommunicationProfile, Optional[float]]:
    """One sweep job: run one failure-free request, stream out the profile.

    The profile accumulates over the event bus while the run executes
    (subscribed right after build), so the extraction works under any trace
    retention policy instead of re-scanning a fully stored trace.
    """
    label, scenario = job
    system = api.build(scenario)
    streaming = StreamingProfile(system.trace, label)
    issued = system.run_request(system.standard_request())
    latency = issued.latency if issued.delivered else None
    return label, streaming.detach(), latency


def run(seed: int = 0, workers: int = 1) -> Figure7Report:
    """Run one failure-free request through each of the four protocols
    (fanned out over ``workers`` processes when asked; same results)."""
    jobs = [
        ("baseline", calibration.paper_scenario("baseline", seed=seed)),
        ("2PC", calibration.paper_scenario("2pc", seed=seed)),
        ("PB", calibration.paper_scenario("pb", seed=seed)),
        ("AR", calibration.paper_scenario("etx", seed=seed)),
    ]
    comparison = StepComparison()
    latencies: dict[str, float] = {}
    for label, profile, latency in sweep_api.map_jobs(_profile_stack, jobs,
                                                      workers=workers):
        if latency is not None:
            latencies[label] = latency
        comparison.add(profile)
    return Figure7Report(comparison=comparison, latencies=latencies)
