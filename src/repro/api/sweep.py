"""Declarative scenario sweeps and their parallel executor.

A :class:`Sweep` is a base :class:`~repro.api.scenario.Scenario` plus named
*axes* (protocol, tier sizes, fault schedules, seeds, load shape, any scenario
field).  :meth:`Sweep.expand` takes the cartesian product of the axes and
yields one concrete scenario per grid point; :func:`run_sweep` executes the
grid -- serially, or fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor`
-- and returns the ordered :class:`ScenarioResult` rows.

Determinism is the contract: every scenario carries its own seed,
:func:`~repro.api.build` restarts the process-global request numbering for
every deployment, and the per-stream simulator RNGs are
hash-randomisation-free, so a parallel sweep produces *byte-identical* results
to a serial execution of the same grid::

    from repro import api

    sweep = api.Sweep.over("etx://d1?workload=bank",
                           protocol=["etx", "2pc"], num_clients=[1, 4, 8])
    result = api.run_sweep(sweep, requests=2, workers=4)
    print(result.to_table())

Experiment harnesses reuse the executor through :func:`map_jobs` when their
per-scenario measurement is something other than :func:`run_scenario`.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar, Union

from repro.api.runner import RunJob, ScenarioResult, run_scenario
from repro.api.scenario import (HOST_FIELDS, PARAMS, Scenario, ScenarioError,
                                 faults_from_text)

_JobT = TypeVar("_JobT")
_RowT = TypeVar("_RowT")

# Axis name -> (Scenario field, parser of the axis value's text form): every
# parameter row under its DSN key and its field name, the host's tier tokens,
# the protocol and the fault list (the ``faults=`` DSN grammar, so whole fault
# schedules sweep as easily as numeric knobs).
_AXES: dict[str, tuple[str, Callable[[str], Any]]] = {
    **{name: (row.field, row.parse) for row in PARAMS for name in (row.key, row.field)},
    **{name: (field_name, int) for tier, field_name in HOST_FIELDS.items()
       for name in (tier, field_name)},
    "app_servers": ("num_app_servers", int),
    "db_servers": ("num_db_servers", int),
    "protocol": ("protocol", str),
    "faults": ("faults", faults_from_text),
}


def resolve_axis_field(name: str) -> str:
    """Map an axis name (field name or DSN spelling) to a Scenario field."""
    if name not in _AXES:
        raise ScenarioError(f"unknown sweep axis {name!r}; known axes: "
                            f"{', '.join(sorted(_AXES))}")
    return _AXES[name][0]


def _axis_value(name: str, value: Any) -> tuple[str, Any]:
    """``(field, value)`` for one axis value; text goes through the axis's
    parser, so ``"3"`` sweeps a count and ``"crash@10:a1"`` a fault list."""
    field_name = resolve_axis_field(name)
    if isinstance(value, str):
        try:
            value = _AXES[name][1](value)
        except ValueError as exc:
            raise ScenarioError(f"bad value for sweep axis {name!r}: {exc}") from None
    return field_name, value


@dataclass(frozen=True)
class Sweep:
    """A base scenario and the axes to expand around it.

    Each axis is ``(name, changes)``: one ``{field: value}`` mapping per
    grid value.  A value given to :meth:`over` is either a plain field value
    or a mapping of several axis names applied together (useful when one
    logical axis moves multiple knobs, e.g. a protocol together with its
    natural middle-tier size).  Axes expand in order, later axes fastest --
    the same nesting as ``itertools.product``.
    """

    base: Scenario
    axes: tuple[tuple[str, tuple[dict[str, Any], ...]], ...] = ()

    @classmethod
    def over(cls, base: Union[Scenario, str], **axes: Iterable[Any]) -> "Sweep":
        """Build a sweep from a base scenario (or DSN) and keyword axes."""
        if isinstance(base, str):
            base = Scenario.from_dsn(base)
        resolved = []
        for name, values in axes.items():
            # A mapping value names its own fields; the axis name is then
            # just a label.
            changes = tuple(dict(_axis_value(k, v) for k, v in value.items())
                            if isinstance(value, Mapping)
                            else dict([_axis_value(name, value)])
                            for value in values)
            if not changes:
                raise ScenarioError(f"sweep axis {name!r} has no values")
            resolved.append((name, changes))
        return cls(base=base, axes=tuple(resolved))

    def expand(self) -> list[Scenario]:
        """One concrete scenario per grid point, in deterministic grid order."""
        return [self.base.with_(**{k: v for change in point for k, v in change.items()})
                for point in itertools.product(*(changes for _, changes in self.axes))]


# ------------------------------------------------------------------ executor


def default_workers(jobs: int) -> int:
    """Worker processes used when the caller does not say: one per grid
    point, capped by the machine's cores."""
    return max(1, min(jobs, os.cpu_count() or 1))


def map_jobs(worker: Callable[[_JobT], _RowT], jobs: Sequence[_JobT],
             workers: Optional[int] = None) -> list[_RowT]:
    """Run ``worker`` over ``jobs``, preserving order.

    ``workers > 1`` fans out over a process pool; ``worker`` (and the jobs and
    rows) must then be picklable, i.e. a module-level function.  ``workers``
    of ``None`` picks :func:`default_workers`; ``0``/``1`` runs serially in
    this process.  Either path calls the *same* worker, so a serial run and a
    parallel run of the same jobs produce identical rows.
    """
    jobs = list(jobs)
    if workers is None:
        workers = default_workers(len(jobs))
    if workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(worker, jobs, chunksize=1))


def _execute_scenario(job: RunJob) -> ScenarioResult:
    """Run one grid point (in whatever process the pool put it)."""
    return run_scenario(job.scenario, requests=job.requests,
                        horizon_per_request=job.horizon, settle=job.settle)


@dataclass
class SweepResult:
    """The ordered outcome of one sweep execution."""

    rows: list[ScenarioResult]

    @property
    def ok(self) -> bool:
        """Every grid point delivered everything and kept the spec clean."""
        return all(row.ok for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_table(self) -> str:
        """Fixed-width text table: one row per grid point.

        The rendering is deliberately deterministic (no timestamps, no worker
        identities) so two executions of the same grid -- serial or parallel
        -- can be compared byte for byte.
        """
        header = (f"{'scenario':<52} {'delivered':>9} {'tput/s':>8} "
                  f"{'p50':>8} {'p95':>8} {'p99':>8} {'mean':>8} "
                  f"{'msgs':>7} {'spec':>5}")
        lines = [header]
        for row in self.rows:
            stats = row.statistics
            delivered = f"{row.delivered}/{row.requested}"
            lines.append(
                f"{row.dsn:<52} {delivered:>9} {stats.throughput:>8.1f} "
                f"{stats.p50:>8.1f} {stats.p95:>8.1f} {stats.p99:>8.1f} "
                f"{stats.mean_latency:>8.1f} {row.total_messages:>7} "
                f"{'ok' if row.spec.ok else 'FAIL':>5}")
        return "\n".join(lines)


def run_sweep(sweep: Union[Sweep, Sequence[Scenario]], requests: int = 1,
              workers: Optional[int] = None,
              horizon_per_request: float = 1_000_000.0,
              settle: float = 5_000.0) -> SweepResult:
    """Execute a sweep (or an explicit scenario list) and collect the rows.

    ``requests`` is per client, as in :func:`repro.api.run_scenario`.
    ``workers`` of ``None`` uses one process per grid point up to the core
    count; ``0``/``1`` runs serially.  Rows come back in grid order
    regardless of which worker finished first.
    """
    scenarios = sweep.expand() if isinstance(sweep, Sweep) else list(sweep)
    jobs = [RunJob(scenario, requests, horizon_per_request, settle)
            for scenario in scenarios]
    return SweepResult(rows=map_jobs(_execute_scenario, jobs, workers=workers))
