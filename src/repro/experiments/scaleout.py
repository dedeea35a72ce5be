"""Experiment E9 -- scale-out curve of the partitioned data tier.

The paper's protocol supports multiple database servers but its evaluation
treats them as replicas: every transaction involves all of them, so databases
add coordination cost, not capacity.  This experiment measures the
partitioned alternative: throughput versus the number of database servers
``d`` at a **fixed offered load**, with the cross-shard fraction ``xshard``
as a family of curves.

* At ``xshard=0`` every transaction touches one shard; the back-end work
  spreads over ``d`` serial database engines, so committed throughput grows
  with ``d`` until the offered load is absorbed.
* Each cross-shard transaction occupies two shards, so higher ``xshard``
  bends the curve back toward the replicated behaviour.

Built on the declarative sweep executor, so a parallel run (``workers > 1``)
is byte-identical to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.api.runner import ScenarioResult
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, run_sweep


@dataclass
class ScaleoutPoint:
    """One (d, xshard) grid point of the scale-out sweep."""

    dsn: str
    db_servers: int
    xshard: float
    throughput: float
    delivered: int
    requested: int
    mean_latency: float
    p95_latency: float
    spec_ok: bool
    commits_by_database: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Everything delivered and the specification held."""
        return self.delivered == self.requested and self.spec_ok


@dataclass
class ScaleoutReport:
    """The measured scale-out surface plus its comparison helpers."""

    points: list[ScaleoutPoint]
    rate: float
    clients: int
    requests_per_client: int
    seed: int

    @property
    def ok(self) -> bool:
        """Whether every grid point delivered everything spec-clean."""
        return all(point.ok for point in self.points)

    def curve(self, xshard: float) -> list[ScaleoutPoint]:
        """The throughput-vs-d curve at one cross-shard fraction."""
        return sorted((p for p in self.points if p.xshard == xshard),
                      key=lambda p: p.db_servers)

    def xshard_values(self) -> list[float]:
        """The cross-shard fractions measured, ascending."""
        return sorted({p.xshard for p in self.points})

    def speedup(self, xshard: float = 0.0) -> dict[int, float]:
        """Throughput of each ``d`` relative to ``d=1`` at one fraction."""
        curve = self.curve(xshard)
        base = next((p.throughput for p in curve if p.db_servers == 1), None)
        if not base:
            return {}
        return {p.db_servers: p.throughput / base for p in curve}

    def to_table(self) -> str:
        """Fixed-width text table: one row per d, one column per xshard."""
        fractions = self.xshard_values()
        header = f"{'d':>3} " + " ".join(f"xshard={f:<4g} tput".rjust(16)
                                         for f in fractions)
        lines = [header]
        for d in sorted({p.db_servers for p in self.points}):
            cells = []
            for fraction in fractions:
                match = [p for p in self.curve(fraction) if p.db_servers == d]
                cells.append(f"{match[0].throughput:>16.2f}" if match
                             else " " * 16)
            lines.append(f"{d:>3} " + " ".join(cells))
        return "\n".join(lines)


def _point(row: ScenarioResult) -> ScaleoutPoint:
    stats = row.statistics
    return ScaleoutPoint(
        dsn=row.dsn,
        db_servers=row.scenario.num_db_servers,
        xshard=row.scenario.xshard,
        throughput=stats.throughput,
        delivered=row.delivered,
        requested=row.requested,
        mean_latency=stats.mean_latency,
        p95_latency=stats.p95,
        spec_ok=row.spec.ok,
        commits_by_database={name: db.commits
                             for name, db in stats.by_database.items()},
    )


def run(db_counts: Sequence[int] = (1, 2, 4, 8),
        xshard_fractions: Sequence[float] = (0.0, 0.25),
        rate: float = 16.0, clients: int = 12, requests: int = 4,
        seed: int = 0, workers: Optional[int] = 1,
        workload: str = "bank", placement: str = "hash") -> ScaleoutReport:
    """Measure throughput vs ``d`` at fixed offered load.

    Parameters
    ----------
    db_counts:
        Database-tier sizes to measure (include 1 for the speed-up baseline).
    xshard_fractions:
        Cross-shard fractions, one curve each.
    rate:
        Offered load in requests per second of virtual time (uniform
        arrivals), held constant across every grid point.
    clients:
        Open-loop clients the arrivals are dealt over.
    requests:
        Arrivals per client (total offered = ``requests * clients``).
    seed, workload, placement:
        Forwarded to the scenario grid.
    workers:
        Worker processes for the grid (results identical at any count).
    """
    base = Scenario(protocol="etx", num_clients=clients, seed=seed,
                    workload=workload, placement=placement,
                    rate=rate, arrival="uniform")
    sweep = Sweep.over(base, xshard=list(xshard_fractions), d=list(db_counts))
    result = run_sweep(sweep, requests=requests, workers=workers)
    return ScaleoutReport(points=[_point(row) for row in result.rows],
                          rate=rate, clients=clients,
                          requests_per_client=requests, seed=seed)
