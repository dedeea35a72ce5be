"""Protocol drivers: one build recipe per middle-tier protocol.

A :class:`ProtocolDriver` knows how to turn a :class:`~repro.api.scenario.Scenario`
into a fully wired deployment.  Drivers live in a registry
(:func:`register_protocol`), so the four paper protocols and any later
additions are constructed through exactly one code path -- :func:`build` --
and every consumer (experiments, examples, CLI, tests) sees the same uniform
:class:`RunningSystem` surface: ``issue`` / ``run`` / ``run_request`` /
``apply_faults`` / ``check_spec`` / ``stats``.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Iterator, Optional

from repro.api.scenario import Scenario, ScenarioError, register_scheme
from repro.api.workloads import ShardContext, WorkloadBinding, bind_workload
from repro.baselines.baseline import BaselineDeployment
from repro.baselines.primary_backup import PrimaryBackupDeployment
from repro.baselines.twopc import TwoPCDeployment
from repro.core.deployment import DeploymentConfig, EtxDeployment, ThreeTierDeployment
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import Request
from repro.runtime.base import RuntimeSpec


class RunningSystem:
    """A built protocol stack behind one protocol-agnostic facade.

    Pairs the :class:`~repro.core.deployment.ThreeTierDeployment` with the
    scenario and workload it was built from.  The run surface (``issue`` /
    ``run`` / ``run_request`` / ``apply_faults`` / ``check_spec`` /
    ``close``) and every other attribute (``sim``, ``trace``, ``network``,
    ``db_servers``, ...) are the wrapped deployment's own, reached by
    delegation; the facade adds ``stats`` and ``standard_request``.
    """

    def __init__(self, scenario: Scenario, deployment: ThreeTierDeployment,
                 workload: WorkloadBinding, db_timing: DatabaseTiming):
        self.scenario = scenario
        self.deployment = deployment
        self.workload = workload
        self.db_timing = db_timing

    def __getattr__(self, name: str) -> Any:
        if name == "deployment":  # guard against recursion before __init__ ran
            raise AttributeError(name)
        return getattr(self.deployment, name)

    def __repr__(self) -> str:
        return f"RunningSystem({self.scenario.to_dsn()!r})"

    @property
    def stats(self):
        """Network traffic statistics of the run."""
        return self.deployment.network.stats

    def standard_request(self) -> Request:
        """A fresh instance of the scenario workload's standard request."""
        return self.workload.make_request()


# DeploymentConfig field -> the Scenario field it is copied from.
_CONFIG_FROM_SCENARIO = {
    **{name: name for name in (
        "num_app_servers", "num_db_servers", "num_clients", "register_mode",
        "seed", "loss_probability", "use_reliable_channels", "detection_delay",
        "failure_detector", "heartbeat_interval", "heartbeat_timeout",
        "client_app_latency", "app_app_latency", "app_db_latency",
        "coordinator_log_latency", "placement")},
    "trace_retention": "trace",
    "mailbox_limit": "mailbox",
}


def deployment_config(scenario: Scenario, **objects: Any) -> DeploymentConfig:
    """The one bridge from a :class:`Scenario` to a :class:`DeploymentConfig`.

    ``objects`` are the config fields a DSN cannot carry (``business_logic``,
    ``initial_data``, ``db_timing``, ``protocol_timing``, ``runtime``), which
    :func:`build` resolves; the reshard switches derive from the fault list.
    """
    copied = {config_field: getattr(scenario, scenario_field)
              for config_field, scenario_field in _CONFIG_FROM_SCENARIO.items()}
    return DeploymentConfig(
        **copied, **objects,
        enable_reshard=any(fault.kind == "reshard" for fault in scenario.faults),
        num_standby_db_servers=len(scenario.standby_db_server_names))


# The comparison stacks have no register mode, tunable failure detector,
# reliable-channel layer or admission control -- those are e-Transaction
# machinery -- so the corresponding scenario fields are rejected instead of
# ignored.  The same goes for the faults that ride on it: online resharding
# needs the epoch directory, an injected false suspicion the oracle detector.
_ETX_ONLY_FIELDS = ("register_mode", "failure_detector", "use_reliable_channels",
                    "detection_delay", "heartbeat_interval", "heartbeat_timeout",
                    "mailbox")
_ETX_ONLY_FAULTS = {"reshard": "online resharding",
                    "false_suspicion": "injected false suspicions"}


class ProtocolDriver:
    """Build recipe for one protocol; subclass and register.

    A protocol is its middle tier: ``deployment_class`` is the
    :class:`~repro.core.deployment.ThreeTierDeployment` subclass that builds
    it (and carries its default and minimum middle-tier size).
    ``ignored_fields`` names the :class:`Scenario` fields this protocol does
    not consume and ``unsupported_faults`` the fault kinds it cannot inject;
    a scenario that sets one of them is rejected rather than silently
    mis-describing the run.
    """

    name: str = ""
    aliases: tuple[str, ...] = ()
    deployment_class: type[ThreeTierDeployment] = ThreeTierDeployment
    ignored_fields: tuple[str, ...] = ()
    unsupported_faults: dict[str, str] = {}  # fault kind -> what it needs

    def build(self, scenario: Scenario, **objects: Any) -> ThreeTierDeployment:
        """Return a fully wired deployment for ``scenario``."""
        return self.deployment_class(deployment_config(scenario, **objects))

    def validate(self, scenario: Scenario) -> None:
        """Reject scenarios this protocol cannot run (or cannot honour)."""
        minimum = self.deployment_class.min_app_servers
        if scenario.num_app_servers < minimum:
            raise ScenarioError(
                f"protocol {self.name!r} needs at least {minimum} "
                f"application server(s), got {scenario.num_app_servers}")
        defaults = {f.name: f.default for f in dataclass_fields(scenario)}
        for field_name in self.ignored_fields:
            if getattr(scenario, field_name) != defaults[field_name]:
                raise ScenarioError(
                    f"protocol {self.name!r} does not support "
                    f"{field_name!r}; remove it from the scenario")
        for fault in scenario.faults:
            if fault.kind in self.unsupported_faults:
                raise ScenarioError(
                    f"protocol {self.name!r} does not support "
                    f"{self.unsupported_faults[fault.kind]}; remove the {fault.kind} "
                    f"fault from the scenario")


_REGISTRY: dict[str, ProtocolDriver] = {}


def register_protocol(name: str, driver: ProtocolDriver,
                      aliases: tuple[str, ...] = ()) -> None:
    """Register ``driver`` under ``name`` (and DSN scheme aliases)."""
    register_scheme(name, *aliases,
                    default_app_servers=driver.deployment_class.default_app_servers)
    _REGISTRY[name] = driver


def get_protocol(name: str) -> ProtocolDriver:
    """The registered driver for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(f"no driver registered for protocol {name!r}; "
                            f"registered: {', '.join(sorted(_REGISTRY))}") from None


def registered_protocols() -> list[str]:
    """Canonical names of every registered protocol."""
    return sorted(_REGISTRY)


def iter_drivers() -> Iterator[tuple[str, ProtocolDriver]]:
    """(name, driver) pairs, sorted by name."""
    return iter(sorted(_REGISTRY.items()))


# ------------------------------------------------------- built-in drivers

class EtxDriver(ProtocolDriver):
    """The paper's asynchronous-replication (e-Transaction) protocol."""

    name = "etx"
    aliases = ("ar",)
    deployment_class = EtxDeployment
    ignored_fields = ("coordinator_log_latency",)


class BaselineDriver(ProtocolDriver):
    """Unreliable baseline (Figure 7a): one-phase commit, no reliability."""

    name = "baseline"
    deployment_class = BaselineDeployment
    ignored_fields = _ETX_ONLY_FIELDS + ("coordinator_log_latency",)
    unsupported_faults = _ETX_ONLY_FAULTS


class TwoPCDriver(ProtocolDriver):
    """Presumed-nothing two-phase commit (Figure 7b)."""

    name = "2pc"
    aliases = ("twopc",)
    deployment_class = TwoPCDeployment
    ignored_fields = _ETX_ONLY_FIELDS
    unsupported_faults = _ETX_ONLY_FAULTS


class PrimaryBackupDriver(ProtocolDriver):
    """Primary-backup replication (Figure 7c)."""

    name = "pb"
    aliases = ("primary-backup",)
    deployment_class = PrimaryBackupDeployment
    ignored_fields = _ETX_ONLY_FIELDS + ("coordinator_log_latency",)
    unsupported_faults = _ETX_ONLY_FAULTS


for _driver in (EtxDriver(), TwoPCDriver(), PrimaryBackupDriver(), BaselineDriver()):
    register_protocol(_driver.name, _driver, aliases=_driver.aliases)


# ----------------------------------------------------------------- facade


def _resolve_db_timing(scenario: Scenario) -> DatabaseTiming:
    if scenario.timing == "paper":
        from repro.experiments.calibration import paper_database_timing

        return paper_database_timing()
    return DatabaseTiming()


def build(scenario: Scenario, *,
          workload: Any = None,
          business_logic: Optional[Callable[[Request], Callable[[Any], Any]]] = None,
          initial_data: Optional[dict[str, Any]] = None,
          db_timing: Optional[DatabaseTiming] = None,
          protocol_timing: Optional[ProtocolTiming] = None,
          runtime: Optional[RuntimeSpec] = None) -> RunningSystem:
    """Build (and start) the system a scenario describes.

    The keyword overrides exist for programmatic callers that need objects a
    DSN cannot carry -- a custom workload instance, timing objects, raw
    business logic, or a :class:`RuntimeSpec` naming the local subset of a
    distributed run; anything omitted comes from the scenario itself.  The
    scenario's fault schedule is applied before returning.
    """
    driver = get_protocol(scenario.protocol)
    driver.validate(scenario)
    shard_context = ShardContext(sharding=scenario.sharding,
                                 cross_shard_fraction=scenario.xshard,
                                 seed=scenario.seed)
    binding = bind_workload(workload if workload is not None else scenario.workload,
                            context=shard_context)
    resolved_db_timing = db_timing if db_timing is not None \
        else _resolve_db_timing(scenario)
    if protocol_timing is None:
        protocol_timing = ProtocolTiming(client_backoff=scenario.client_backoff)
    deployment = driver.build(
        scenario,
        business_logic=business_logic if business_logic is not None
        else binding.business_logic,
        initial_data=dict(initial_data) if initial_data is not None
        else dict(binding.initial_data),
        db_timing=resolved_db_timing,
        protocol_timing=protocol_timing,
        runtime=runtime if runtime is not None else scenario.runtime_spec,
    )
    system = RunningSystem(scenario, deployment, binding, resolved_db_timing)
    schedule = scenario.fault_schedule()
    if len(schedule):
        system.apply_faults(schedule)
    return system
