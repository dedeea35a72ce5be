"""Named workloads for scenarios.

A scenario names its workload (``workload=bank`` in the DSN); this module
resolves the name to a :class:`WorkloadBinding` -- the business logic, the
initial database contents and a factory for the workload's standard request.
Programmatic callers can instead pass a workload *object* (anything with
``business_logic`` and ``initial_data()``) straight to :func:`repro.api.build`;
:func:`bind_workload` wraps it the same way.

On a **partitioned** deployment (``placement=hash``/``mod`` in the DSN) the
binding happens against a :class:`ShardContext`: the named workloads then emit
shard-tagged key spaces sized to the database tier, generate requests carrying
their participant sets, and honour the scenario's cross-shard fraction
(``xshard``).  A workload that does not know how to shard itself is rejected
for partitioned placements -- running it would fan every request out to shards
that do not own its keys and abort everything.

New workloads register with :func:`register_workload`; the factory receives
the ``Optional[ShardContext]`` (``None`` for unpartitioned runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

from repro.api.scenario import ScenarioError
from repro.core.deployment import default_business_logic
from repro.core.sharding import Sharding
from repro.core.types import Request
from repro.workload.bank import BankWorkload
from repro.workload.travel import TravelWorkload


@dataclass(frozen=True)
class ShardContext:
    """Everything a workload needs to bind against a partitioned data tier."""

    sharding: Sharding
    cross_shard_fraction: float = 0.0
    seed: int = 0

    @property
    def partitioned(self) -> bool:
        """Whether the deployment actually partitions its key space."""
        return self.sharding.partitioned


@dataclass
class WorkloadBinding:
    """A workload resolved for one run."""

    name: str
    instance: Any  # the underlying workload object (None for ``default``)
    business_logic: Callable[[Request], Callable[[Any], Any]]
    initial_data: dict[str, Any]
    make_request: Callable[[], Request]
    shard_aware: bool = False


_REGISTRY: Dict[str, Callable[[Optional[ShardContext]], WorkloadBinding]] = {}


def register_workload(name: str,
                      factory: Callable[[Optional[ShardContext]], WorkloadBinding]) -> None:
    """Register a named workload usable as ``workload=<name>`` in DSNs."""
    _REGISTRY[name] = factory


def registered_workloads() -> list[str]:
    """Names accepted for the ``workload`` scenario field."""
    return sorted(_REGISTRY)


def bind_workload(spec: Union[str, Any, None],
                  context: Optional[ShardContext] = None) -> WorkloadBinding:
    """Resolve a workload name or object to a :class:`WorkloadBinding`."""
    if spec is None:
        spec = "default"
    if isinstance(spec, str):
        try:
            binding = _REGISTRY[spec](context)
        except KeyError:
            raise ScenarioError(f"unknown workload {spec!r}; registered workloads: "
                                f"{', '.join(registered_workloads())}") from None
    elif isinstance(spec, WorkloadBinding):
        binding = spec
    else:
        binding = _bind_object(spec, context=context)
    if context is not None and context.partitioned and not binding.shard_aware:
        raise ScenarioError(
            f"workload {binding.name!r} is not shard-aware; a partitioned "
            f"placement would fan its requests out to shards that do not own "
            f"their keys.  Use a shard-aware workload (bank, travel) or "
            f"placement=replicate")
    return binding


def _bind_object(workload: Any, name: str = "",
                 context: Optional[ShardContext] = None) -> WorkloadBinding:
    shard_aware = False
    if context is not None and context.partitioned \
            and hasattr(workload, "sharded_requests"):
        make_request = workload.sharded_requests(
            context.sharding, context.cross_shard_fraction, context.seed)
        shard_aware = True
    elif hasattr(workload, "debit"):
        make_request = lambda: workload.debit(0, 10)  # noqa: E731
    elif hasattr(workload, "book"):
        make_request = lambda: workload.book(workload.destinations[0])  # noqa: E731
    else:
        make_request = _ping
    return WorkloadBinding(
        name=name or type(workload).__name__,
        instance=workload,
        business_logic=workload.business_logic,
        initial_data=dict(workload.initial_data()),
        make_request=make_request,
        shard_aware=shard_aware,
    )


def _ping() -> Request:
    return Request("ping", {"n": 1})


def _default_binding(context: Optional[ShardContext] = None) -> WorkloadBinding:
    return WorkloadBinding(name="default", instance=None,
                           business_logic=default_business_logic,
                           initial_data={}, make_request=_ping)


def _bank_binding(context: Optional[ShardContext] = None) -> WorkloadBinding:
    if context is not None and context.partitioned:
        # Partitioned tier: one tagged account range sized to the shard count
        # (enough keys per shard that single-shard traffic rarely conflicts),
        # overdraft allowed because the funds check cannot span shards.
        shards = len(context.sharding.shards)
        workload = BankWorkload(num_accounts=max(16, 16 * shards),
                                initial_balance=100_000,
                                allow_overdraft=True, shard_tags=True)
        return _bind_object(workload, name="bank", context=context)
    # The paper's measured workload: small debits against a bank account
    # (the configuration behind Figures 1, 7 and 8).
    return _bind_object(BankWorkload(num_accounts=4, initial_balance=100_000),
                        name="bank")


def _travel_binding(context: Optional[ShardContext] = None) -> WorkloadBinding:
    if context is not None and context.partitioned:
        shards = len(context.sharding.shards)
        destinations = tuple(f"CITY{i:02d}" for i in range(max(4, 2 * shards)))
        workload = TravelWorkload(destinations=destinations,
                                  seats_per_flight=10_000, rooms_per_hotel=10_000,
                                  cars_per_city=10_000, shard_tags=True)
        return _bind_object(workload, name="travel", context=context)
    return _bind_object(TravelWorkload(), name="travel")


register_workload("default", _default_binding)
register_workload("bank", _bank_binding)
register_workload("travel", _travel_binding)
