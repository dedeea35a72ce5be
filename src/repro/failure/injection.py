"""Fault injection: declarative schedules and randomised generators.

A :class:`FaultSchedule` is a list of timed :class:`FaultAction` objects
(crash, recover, crash-for-a-while, partition, heal, false suspicion) that is
applied to a deployment before a run.  The experiment harnesses use explicit
schedules to reproduce the four executions of the paper's Figure 1, and the
property-based tests use :class:`RandomFaultPlan` to generate schedules that
respect the paper's correctness assumptions (a majority of application servers
stay up, database servers always recover).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.failure.detectors import EventuallyPerfectFailureDetector, FailureDetector
from repro.net.network import Network
from repro.sim.scheduler import Simulator

CRASH = "crash"
RECOVER = "recover"
CRASH_FOR = "crash_for"
PARTITION = "partition"
HEAL = "heal"
FALSE_SUSPICION = "false_suspicion"
RESHARD = "reshard"

_VALID_KINDS = {CRASH, RECOVER, CRASH_FOR, PARTITION, HEAL, FALSE_SUSPICION,
                RESHARD}

# Kind -> the exact ``params`` keys it takes.  Anything else is a typo that
# used to surface as a ``KeyError`` deep inside ``apply``; now it is rejected
# at construction time.
_PARAM_KEYS = {
    CRASH: frozenset(),
    RECOVER: frozenset(),
    CRASH_FOR: frozenset({"downtime"}),
    PARTITION: frozenset({"groups"}),
    HEAL: frozenset(),
    FALSE_SUSPICION: frozenset({"observer", "duration"}),
    RESHARD: frozenset({"from_count", "to_count"}),
}


def validate_downtime(downtime: Any) -> None:
    """Check a ``crash_for`` downtime (shared by FaultAction and FaultSpec)."""
    if not isinstance(downtime, (int, float)) or isinstance(downtime, bool) \
            or downtime <= 0:
        raise ValueError(f"crash_for needs a positive numeric 'downtime', "
                         f"got {downtime!r}")


def validate_suspicion(observer: Any, target: str, duration: Any) -> None:
    """Check false-suspicion parameters (shared by FaultAction and FaultSpec)."""
    if not isinstance(observer, str) or not observer:
        raise ValueError("false_suspicion needs an 'observer' process")
    if observer == target:
        raise ValueError("false_suspicion observer and target must differ")
    if not isinstance(duration, (int, float)) or isinstance(duration, bool) \
            or duration <= 0:
        raise ValueError(f"false_suspicion needs a positive numeric "
                         f"'duration', got {duration!r}")


def validate_reshard(from_count: Any, to_count: Any) -> None:
    """Check a reshard's shard counts (shared by FaultAction and FaultSpec)."""
    for label, count in (("from_count", from_count), ("to_count", to_count)):
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ValueError(f"reshard needs a positive integer {label!r}, "
                             f"got {count!r}")
    if from_count == to_count:
        raise ValueError(f"reshard from_count and to_count must differ "
                         f"(both {from_count})")


def validate_partition_groups(groups: Any) -> list[list[str]]:
    """Check a partition's group layout and return it normalised.

    Groups must be a non-empty sequence of non-empty process-name groups with
    no name appearing twice (within one group or across groups): an
    overlapping layout is ambiguous -- :meth:`Network.partition` routes by the
    first group containing the sender -- and previously only misbehaved mid-run.
    """
    if not isinstance(groups, (list, tuple)) or not groups:
        raise ValueError("partition needs at least one non-empty group")
    normalised: list[list[str]] = []
    seen: set[str] = set()
    for group in groups:
        if not isinstance(group, (list, tuple, set, frozenset)) or not group:
            raise ValueError("partition groups must be non-empty name sequences")
        members = sorted(group) if isinstance(group, (set, frozenset)) else list(group)
        for name in members:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad process name in partition group: {name!r}")
            if name in seen:
                raise ValueError(f"process {name!r} appears in two partition "
                                 "groups (overlapping layouts are ambiguous)")
            seen.add(name)
        normalised.append(members)
    return normalised


@dataclass
class FaultAction:
    """One scheduled fault.

    ``kind`` is one of the module-level constants.  ``target`` is the process
    name (or, for partitions and heals, unused).  ``params`` carries
    kind-specific data: ``downtime`` for :data:`CRASH_FOR`, ``groups`` for
    :data:`PARTITION`, ``observer``/``duration`` for :data:`FALSE_SUSPICION`.
    Kind-specific requirements are validated eagerly here, so a malformed
    action fails at construction with a clear message instead of blowing up
    mid-run inside ``apply``.
    """

    time: float
    kind: str
    target: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        unknown = set(self.params) - _PARAM_KEYS[self.kind]
        if unknown:
            raise ValueError(f"fault kind {self.kind!r} does not take params "
                             f"{sorted(unknown)}")
        if self.kind in (CRASH, RECOVER, CRASH_FOR, FALSE_SUSPICION):
            if not self.target:
                raise ValueError(f"fault kind {self.kind!r} needs a target process")
        elif self.target:
            raise ValueError(f"fault kind {self.kind!r} takes no target "
                             f"(got {self.target!r})")
        if self.kind == CRASH_FOR:
            validate_downtime(self.params.get("downtime"))
        elif self.kind == PARTITION:
            if "groups" not in self.params:
                raise ValueError("partition needs a 'groups' param")
            self.params["groups"] = validate_partition_groups(self.params["groups"])
        elif self.kind == FALSE_SUSPICION:
            validate_suspicion(self.params.get("observer"), self.target,
                               self.params.get("duration"))
        elif self.kind == RESHARD:
            validate_reshard(self.params.get("from_count"),
                             self.params.get("to_count"))


class FaultSchedule:
    """An ordered collection of :class:`FaultAction` applied to a run."""

    def __init__(self, actions: Optional[Sequence[FaultAction]] = None):
        self.actions: list[FaultAction] = list(actions or [])

    # ------------------------------------------------------------ construction

    def crash(self, time: float, target: str) -> "FaultSchedule":
        """Crash ``target`` at ``time`` (no automatic recovery)."""
        self.actions.append(FaultAction(time, CRASH, target))
        return self

    def recover(self, time: float, target: str) -> "FaultSchedule":
        """Recover ``target`` at ``time``."""
        self.actions.append(FaultAction(time, RECOVER, target))
        return self

    def crash_for(self, time: float, target: str, downtime: float) -> "FaultSchedule":
        """Crash ``target`` at ``time`` and recover it ``downtime`` later."""
        self.actions.append(FaultAction(time, CRASH_FOR, target, {"downtime": downtime}))
        return self

    def partition(self, time: float, *groups: Sequence[str]) -> "FaultSchedule":
        """Partition the network into ``groups`` at ``time``."""
        self.actions.append(FaultAction(time, PARTITION, params={"groups": [list(g) for g in groups]}))
        return self

    def heal(self, time: float) -> "FaultSchedule":
        """Heal any partition at ``time``."""
        self.actions.append(FaultAction(time, HEAL))
        return self

    def false_suspicion(self, time: float, observer: str, target: str,
                        duration: float) -> "FaultSchedule":
        """Make ``observer`` falsely suspect ``target`` for ``duration`` starting at ``time``."""
        self.actions.append(FaultAction(time, FALSE_SUSPICION, target,
                                        {"observer": observer, "duration": duration}))
        return self

    def reshard(self, time: float, from_count: int, to_count: int) -> "FaultSchedule":
        """Start an online reconfiguration ``from_count`` -> ``to_count`` shards at ``time``."""
        self.actions.append(FaultAction(time, RESHARD, params={
            "from_count": from_count, "to_count": to_count}))
        return self

    def extend(self, other: "FaultSchedule") -> "FaultSchedule":
        """Append all actions of ``other``."""
        self.actions.extend(other.actions)
        return self

    def restricted_to(self, names: set[str]) -> "FaultSchedule":
        """The sub-schedule one host of a distributed run can act on locally.

        Crashes, recoveries and crash-for keep only actions targeting a local
        process; false suspicions keep only local *observers* (the suspicion
        is injected into the observer's detector).  Partitions and heals are
        kept everywhere: each host drops its own outbound cross-group
        traffic, which composes into the symmetric global partition.
        """
        kept = []
        for action in self.actions:
            if action.kind in (PARTITION, HEAL):
                kept.append(action)
            elif action.kind == FALSE_SUSPICION:
                if action.params["observer"] in names:
                    kept.append(action)
            elif action.target in names:
                kept.append(action)
        return FaultSchedule(kept)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(sorted(self.actions, key=lambda a: a.time))

    def __eq__(self, other: object) -> bool:
        """Schedules are equal when they apply the same actions in time order.

        Like other mutable value-equality containers (``list``, ``dict``),
        schedules are therefore unhashable; key by an immutable form (the
        DSN fault specs, or ``tuple(schedule.describe())``) instead.
        """
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return list(self) == list(other)

    # ----------------------------------------------------------------- apply

    def apply(self, sim: Simulator, network: Network,
              failure_detector: Optional[FailureDetector] = None,
              reshard: Optional[Any] = None) -> None:
        """Schedule every action on ``sim`` against ``network``'s processes.

        ``reshard`` is the deployment's reconfiguration entry point, a
        ``(from_count, to_count) -> None`` callable; deployments without an
        online-reshard coordinator leave it ``None`` and reshard actions are
        rejected at apply time.
        """
        for action in self:
            self._apply_one(action, sim, network, failure_detector, reshard)

    def _apply_one(self, action: FaultAction, sim: Simulator, network: Network,
                   fd: Optional[FailureDetector],
                   reshard: Optional[Any] = None) -> None:
        if action.kind == CRASH:
            target = network.processes[action.target]
            sim.schedule_at(action.time, target.crash, name=f"fault:crash:{action.target}")
        elif action.kind == RECOVER:
            target = network.processes[action.target]
            sim.schedule_at(action.time, target.recover, name=f"fault:recover:{action.target}")
        elif action.kind == CRASH_FOR:
            target = network.processes[action.target]
            downtime = action.params["downtime"]
            sim.schedule_at(action.time, lambda t=target, d=downtime: t.crash_for(d),
                            name=f"fault:crash_for:{action.target}")
        elif action.kind == PARTITION:
            groups = action.params["groups"]
            sim.schedule_at(action.time, lambda g=groups: network.partition(*g),
                            name="fault:partition")
        elif action.kind == HEAL:
            sim.schedule_at(action.time, network.heal_partition, name="fault:heal")
        elif action.kind == FALSE_SUSPICION:
            if not isinstance(fd, EventuallyPerfectFailureDetector):
                raise ValueError("false_suspicion requires an EventuallyPerfectFailureDetector")
            fd.inject_false_suspicion(action.params["observer"], action.target,
                                      action.time, action.params["duration"])
        elif action.kind == RESHARD:
            if reshard is None:
                raise ValueError("reshard requires a deployment with an "
                                 "online-reconfiguration coordinator")
            frm, to = action.params["from_count"], action.params["to_count"]
            sim.schedule_at(action.time, lambda f=frm, t=to: reshard(f, t),
                            name=f"fault:reshard:d{frm}->d{to}")

    def describe(self) -> list[str]:
        """Human-readable description of the schedule (for reports)."""
        lines = []
        for action in self:
            if action.kind == CRASH_FOR:
                lines.append(f"t={action.time:g}: crash {action.target} "
                             f"for {action.params['downtime']:g}")
            elif action.kind == FALSE_SUSPICION:
                lines.append(f"t={action.time:g}: {action.params['observer']} falsely suspects "
                             f"{action.target} for {action.params['duration']:g}")
            elif action.kind == PARTITION:
                lines.append(f"t={action.time:g}: partition {action.params['groups']}")
            elif action.kind == RESHARD:
                lines.append(f"t={action.time:g}: reshard "
                             f"d{action.params['from_count']}->d{action.params['to_count']}")
            else:
                lines.append(f"t={action.time:g}: {action.kind} {action.target}".rstrip())
        return lines


@dataclass
class RandomFaultPlan:
    """Parameters for generating random, assumption-respecting fault schedules.

    The generated schedules keep the paper's correctness assumptions:

    * at most a minority of application servers is ever crashed (and crashed
      application servers stay down -- the paper's crash-stop model for the
      middle tier),
    * database servers may crash at any time but always recover within
      ``db_downtime_max`` ("all database servers are good"),
    * the client may optionally crash (the spec then only requires at-most-once).
    """

    app_servers: Sequence[str]
    db_servers: Sequence[str]
    client: Optional[str] = None
    horizon: float = 2_000.0
    max_app_crashes: Optional[int] = None
    db_crash_probability: float = 0.5
    db_downtime_min: float = 20.0
    db_downtime_max: float = 150.0
    client_crash_probability: float = 0.0
    false_suspicion_probability: float = 0.3
    false_suspicion_duration: float = 40.0

    def generate(self, seed: int) -> FaultSchedule:
        """Build a deterministic random schedule for ``seed``."""
        rng = random.Random(seed)
        schedule = FaultSchedule()
        majority_bound = (len(self.app_servers) - 1) // 2
        budget = self.max_app_crashes if self.max_app_crashes is not None else majority_bound
        budget = min(budget, majority_bound)
        crashable = list(self.app_servers)
        rng.shuffle(crashable)
        for name in crashable[:budget]:
            if rng.random() < 0.7:
                schedule.crash(rng.uniform(0.0, self.horizon * 0.6), name)
        for name in self.db_servers:
            if rng.random() < self.db_crash_probability:
                start = rng.uniform(0.0, self.horizon * 0.5)
                downtime = rng.uniform(self.db_downtime_min, self.db_downtime_max)
                schedule.crash_for(start, name, downtime)
        if self.client is not None and rng.random() < self.client_crash_probability:
            schedule.crash(rng.uniform(0.0, self.horizon * 0.5), self.client)
        if len(self.app_servers) >= 2 and rng.random() < self.false_suspicion_probability:
            observer, target = rng.sample(list(self.app_servers), 2)
            schedule.false_suspicion(rng.uniform(0.0, self.horizon * 0.4), observer, target,
                                     self.false_suspicion_duration)
        return schedule
