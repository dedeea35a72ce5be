"""Fault injection: put a run's faults on the simulator's event queue.

A fault is a :class:`~repro.api.scenario.FaultSpec` -- the value a DSN
``fault=`` token parses to (crash, recover, crash-for-a-while, partition,
heal, false suspicion, reshard).  :func:`schedule_faults` applies a sequence
of them to a deployment before a run; the experiment table's DSNs name
explicit ones to reproduce the executions of the paper's Figure 1, and the
fault sweep's and the campaigns' schedules are drawn in
:mod:`repro.campaign.adversarial` (``RandomFaultPlan``, ``AdversarialFaultPlan``).
:func:`validate_partition_groups` is the one check of a partition layout,
shared by ``FaultSpec`` and :meth:`~repro.net.network.Network.partition`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.failure.detectors import EventuallyPerfectFailureDetector, FailureDetector
from repro.net.network import Network
from repro.sim.scheduler import Simulator

if TYPE_CHECKING:  # repro.api imports this module
    from repro.api.scenario import FaultSpec


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


def schedule_faults(faults: Iterable["FaultSpec"], sim: Simulator, network: Network,
                    fd: Optional[FailureDetector] = None,
                    reshard: Optional[Callable[[int, int], None]] = None) -> None:
    """Schedule every fault on ``sim`` against ``network``'s processes.

    Faults go on the queue in stable time order, so faults due at the same
    time fire in the order given.  A false suspicion is injected into ``fd``,
    which must be an :class:`EventuallyPerfectFailureDetector`.  ``reshard``
    is the deployment's reconfiguration entry point, a
    ``(from_count, to_count) -> None`` callable; deployments without an
    online-reshard coordinator leave it ``None`` and a reshard is refused.
    """
    for fault in sorted(faults, key=lambda f: f.time):
        kind, time, target = fault.kind, fault.time, fault.target
        if kind == "crash":
            sim.schedule_at(time, network.processes[target].crash,
                            name=f"fault:crash:{target}")
        elif kind == "recover":
            sim.schedule_at(time, network.processes[target].recover,
                            name=f"fault:recover:{target}")
        elif kind == "crash_for":
            sim.schedule_at(time, partial(network.processes[target].crash_for,
                                          fault.downtime),
                            name=f"fault:crash_for:{target}")
        elif kind == "partition":
            sim.schedule_at(time, partial(network.partition, *fault.groups),
                            name="fault:partition")
        elif kind == "heal":
            sim.schedule_at(time, network.heal_partition, name="fault:heal")
        elif kind == "false_suspicion":
            if not isinstance(fd, EventuallyPerfectFailureDetector):
                raise ValueError("false_suspicion requires an EventuallyPerfectFailureDetector")
            fd.inject_false_suspicion(fault.observer, target, time, fault.duration)
        elif kind == "reshard":
            if reshard is None:
                raise ValueError("reshard requires a deployment with an "
                                 "online-reconfiguration coordinator")
            frm, to = fault.from_shards, fault.to_shards
            sim.schedule_at(time, partial(reshard, frm, to),
                            name=f"fault:reshard:d{frm}->d{to}")
