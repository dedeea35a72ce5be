"""Window-targeted fault generation and schedule mutation.

The unit of search is the :class:`FaultAtom` -- one *assumption-respecting*
fault move.  Atoms are deliberately one level above raw
:class:`~repro.api.scenario.FaultSpec`\\ s: a partition atom carries its
own healing (it lowers to a ``partition`` + ``heal`` pair), a database crash
always recovers, and the plan caps permanent middle-tier crashes, so every
schedule the search explores stays inside the paper's correctness
assumptions.  That is what makes a found violation *meaningful*: the same
fault budget leaves the e-Transaction protocol clean.

:class:`AdversarialFaultPlan` samples atoms aimed at the phase-transition
windows a probe run recorded (see
:class:`~repro.campaign.windows.FaultWindowObserver`) and mutates known
schedules -- shift a fault in time, swap its target, stretch its duration,
add or drop one move -- which is how the campaign climbs from near-misses to
counterexamples.  :class:`RandomFaultPlan` draws schedules uniformly over
the clock instead (the fault sweep, ``python -m repro experiment
fault_sweep``, and the property tests): this module is the one place that
draws fault schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.api.scenario import FaultSpec, Scenario
from repro.campaign.windows import PhaseTransition

ATOM_CRASH = "crash"
ATOM_CRASH_FOR = "crash_for"
ATOM_PARTITION = "partition_window"
ATOM_SUSPICION = "false_suspicion"


@dataclass(frozen=True)
class FaultAtom:
    """One assumption-respecting fault move.

    ``duration`` is the downtime of a transient crash, the width of a
    partition window, or the length of a false suspicion; permanent crashes
    have no duration.  ``groups`` only applies to partition windows (the
    named groups are cut from each other and from the implicit rest).
    """

    kind: str
    time: float
    target: str = ""
    observer: str = ""
    duration: float = 0.0
    groups: tuple[tuple[str, ...], ...] = ()

    def to_specs(self) -> tuple[FaultSpec, ...]:
        """Lower this atom to DSN-expressible fault specs."""
        if self.kind == ATOM_CRASH:
            return (FaultSpec("crash", self.time, self.target),)
        if self.kind == ATOM_CRASH_FOR:
            return (FaultSpec("crash_for", self.time, self.target,
                              downtime=self.duration),)
        if self.kind == ATOM_PARTITION:
            return (FaultSpec("partition", self.time, groups=self.groups),
                    FaultSpec("heal", self.time + self.duration))
        return (FaultSpec("false_suspicion", self.time, self.target,
                          observer=self.observer, duration=self.duration),)


def atoms_to_specs(atoms: Sequence[FaultAtom],
                   base: Sequence[FaultSpec] = ()) -> tuple[FaultSpec, ...]:
    """Lower atoms to a time-ordered tuple of fault specs, merged with the
    ``base`` specs they are laid on top of."""
    specs = [*base, *(spec for atom in atoms for spec in atom.to_specs())]
    return tuple(sorted(specs, key=lambda s: (s.time, s.kind, s.target)))


@dataclass(frozen=True)
class AdversarialFaultPlan:
    """Samples and mutates fault schedules aimed at protocol windows.

    Every method is a pure function of its ``rng``, so a campaign driven by a
    seeded :class:`random.Random` is fully deterministic.
    """

    app_servers: tuple[str, ...]
    db_servers: tuple[str, ...]
    clients: tuple[str, ...]
    anchors: tuple[PhaseTransition, ...] = ()
    allow_false_suspicion: bool = False
    max_app_crashes: int = 1
    max_atoms: int = 3
    jitter: float = 12.0
    db_downtime_range: tuple[float, float] = (20.0, 150.0)
    partition_duration_range: tuple[float, float] = (25.0, 120.0)
    suspicion_duration: float = 40.0
    horizon: float = 2_000.0

    @classmethod
    def for_scenario(cls, scenario: Scenario,
                     anchors: Sequence[PhaseTransition] = (),
                     **overrides) -> "AdversarialFaultPlan":
        """The default plan for ``scenario``.

        The fault budget is the *same physical hardware abuse* for every
        protocol -- one permanent middle-tier crash (the paper's minority
        bound for the replicated protocol at its standard tier size, and
        exactly the coordinator loss the unreplicated baselines centralise
        their state against), transient database crashes, healing
        partitions, bounded false suspicions (where the stack has an
        unreliable failure detector to inject into).  For ``etx`` the bound
        is the *exact* minority -- crashing a majority of a 1- or 2-replica
        deployment would exceed the paper's stated assumptions and make any
        resulting "violation" meaningless.  The database targets include the
        standbys a ``reshard`` grows into: a fresh shard crashing mid-install
        is the case the idempotent MIGRATE replay exists for.
        """
        minority = (scenario.num_app_servers - 1) // 2
        defaults = dict(
            app_servers=tuple(scenario.app_server_names),
            db_servers=tuple(scenario.all_db_server_names),
            clients=tuple(scenario.client_names),
            anchors=tuple(anchors),
            allow_false_suspicion=(scenario.protocol == "etx"
                                   and scenario.num_app_servers >= 2),
            max_app_crashes=(minority if scenario.protocol == "etx"
                             else max(1, minority)),
        )
        defaults.update(overrides)
        return cls(**defaults)

    # ---------------------------------------------------------------- sampling

    def _kinds(self) -> list[str]:
        kinds = [ATOM_CRASH_FOR, ATOM_PARTITION, ATOM_PARTITION]
        if self.max_app_crashes > 0:
            kinds.insert(0, ATOM_CRASH)
        if self.allow_false_suspicion and len(self.app_servers) >= 2:
            kinds.append(ATOM_SUSPICION)
        return kinds

    def _anchor_time(self, rng: random.Random) -> tuple[float, str]:
        """A jittered time at (or near) a recorded window, plus its process."""
        if self.anchors:
            anchor = rng.choice(self.anchors)
            time = anchor.time + rng.uniform(-self.jitter, self.jitter)
            return max(0.0, time), anchor.process
        return rng.uniform(0.0, self.horizon), ""

    def _partition_groups(self, rng: random.Random,
                          near: str) -> tuple[tuple[str, ...], ...]:
        """One named cut; everything unnamed forms the implicit other side."""
        cuts: list[tuple[tuple[str, ...], ...]] = []
        # Isolate one application server (the window's, when it names one).
        app = near if near in self.app_servers else rng.choice(self.app_servers)
        cuts.append(((app,),))
        # Split the middle tier (plus clients) from the data tier.
        cuts.append((tuple(self.app_servers) + tuple(self.clients),
                     tuple(self.db_servers)))
        # Cut the clients off.
        cuts.append((tuple(self.clients),))
        if len(self.db_servers) >= 2:
            # Split the data tier in half.
            half = len(self.db_servers) // 2
            cuts.append((tuple(self.db_servers[:half]),))
        return rng.choice(cuts)

    def _sample_atom(self, rng: random.Random) -> FaultAtom:
        time, near = self._anchor_time(rng)
        kind = rng.choice(self._kinds())
        if kind == ATOM_CRASH:
            target = near if near in self.app_servers else rng.choice(self.app_servers)
            return FaultAtom(ATOM_CRASH, time, target)
        if kind == ATOM_CRASH_FOR:
            target = near if near in self.db_servers else rng.choice(self.db_servers)
            return FaultAtom(ATOM_CRASH_FOR, time, target,
                             duration=rng.uniform(*self.db_downtime_range))
        if kind == ATOM_PARTITION:
            return FaultAtom(ATOM_PARTITION, time,
                             duration=rng.uniform(*self.partition_duration_range),
                             groups=self._partition_groups(rng, near))
        target = near if near in self.app_servers else rng.choice(self.app_servers)
        observer = rng.choice([a for a in self.app_servers if a != target])
        return FaultAtom(ATOM_SUSPICION, time, target, observer=observer,
                         duration=self.suspicion_duration)

    def _enforce(self, atoms: Sequence[FaultAtom]) -> tuple[FaultAtom, ...]:
        """Keep the schedule inside the assumption envelope.

        At most ``max_app_crashes`` permanent crashes, each of a *distinct*
        application server (crashing the same one twice is a no-op, crashing
        a majority would make liveness unfalsifiable).
        """
        kept: list[FaultAtom] = []
        crashed: set[str] = set()
        for atom in atoms:
            if atom.kind == ATOM_CRASH:
                if atom.target in crashed or len(crashed) >= self.max_app_crashes:
                    continue
                crashed.add(atom.target)
            kept.append(atom)
        return tuple(kept)

    def sample(self, rng: random.Random) -> tuple[FaultAtom, ...]:
        """A fresh window-targeted schedule of 1..``max_atoms`` moves."""
        count = rng.randint(1, self.max_atoms)
        atoms = self._enforce([self._sample_atom(rng) for _ in range(count)])
        while not atoms:  # everything was an over-budget crash; resample
            atoms = self._enforce([self._sample_atom(rng)])
        return atoms

    # ---------------------------------------------------------------- mutation

    def mutate(self, atoms: Sequence[FaultAtom],
               rng: random.Random) -> tuple[FaultAtom, ...]:
        """Perturb a known schedule by one move.

        Operators: shift one fault in time, swap its target, stretch or
        shrink its duration, drop one move, add one fresh window-targeted
        move.  The result is re-checked against the assumption envelope.
        """
        atoms = list(atoms)
        operators = ["shift", "retarget", "add"]
        if len(atoms) > 1:
            operators.append("drop")
        if any(a.duration for a in atoms):
            operators.append("stretch")
        operator = rng.choice(operators)
        if operator == "shift":
            index = rng.randrange(len(atoms))
            delta = rng.uniform(-3 * self.jitter, 3 * self.jitter)
            atoms[index] = replace(atoms[index],
                                   time=max(0.0, atoms[index].time + delta))
        elif operator == "retarget":
            index = rng.randrange(len(atoms))
            atoms[index] = self._retarget(atoms[index], rng)
        elif operator == "drop":
            atoms.pop(rng.randrange(len(atoms)))
        elif operator == "add":
            atoms.insert(rng.randrange(len(atoms) + 1), self._sample_atom(rng))
        else:  # stretch
            candidates = [i for i, a in enumerate(atoms) if a.duration]
            index = rng.choice(candidates)
            factor = rng.uniform(0.5, 2.0)
            atoms[index] = replace(atoms[index],
                                   duration=max(1.0, atoms[index].duration * factor))
        enforced = self._enforce(atoms)
        return enforced if enforced else self.sample(rng)

    def _retarget(self, atom: FaultAtom, rng: random.Random) -> FaultAtom:
        if atom.kind == ATOM_CRASH:
            return replace(atom, target=rng.choice(self.app_servers))
        if atom.kind == ATOM_CRASH_FOR:
            return replace(atom, target=rng.choice(self.db_servers))
        if atom.kind == ATOM_PARTITION:
            return replace(atom, groups=self._partition_groups(rng, ""))
        target = rng.choice(self.app_servers)
        others: Optional[list[str]] = [a for a in self.app_servers if a != target]
        if not others:
            return atom
        return replace(atom, target=target, observer=rng.choice(others))


@dataclass
class RandomFaultPlan:
    """Parameters for generating random, assumption-respecting faults.

    The generated faults keep the paper's correctness assumptions:

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

    def generate(self, seed: int) -> tuple[FaultSpec, ...]:
        """Deterministic random faults for ``seed``, in stable time order."""
        rng = random.Random(seed)
        faults = []
        majority_bound = (len(self.app_servers) - 1) // 2
        budget = self.max_app_crashes if self.max_app_crashes is not None else majority_bound
        budget = min(budget, majority_bound)
        crashable = list(self.app_servers)
        rng.shuffle(crashable)
        for name in crashable[:budget]:
            if rng.random() < 0.7:
                faults.append(FaultSpec("crash", rng.uniform(0.0, self.horizon * 0.6),
                                        name))
        for name in self.db_servers:
            if rng.random() < self.db_crash_probability:
                start = rng.uniform(0.0, self.horizon * 0.5)
                downtime = rng.uniform(self.db_downtime_min, self.db_downtime_max)
                faults.append(FaultSpec("crash_for", start, name, downtime=downtime))
        if self.client is not None and rng.random() < self.client_crash_probability:
            faults.append(FaultSpec("crash", rng.uniform(0.0, self.horizon * 0.5),
                                    self.client))
        if len(self.app_servers) >= 2 and rng.random() < self.false_suspicion_probability:
            observer, target = rng.sample(list(self.app_servers), 2)
            faults.append(FaultSpec(
                "false_suspicion", rng.uniform(0.0, self.horizon * 0.4), target,
                observer=observer, duration=self.false_suspicion_duration))
        return tuple(sorted(faults, key=lambda fault: fault.time))
