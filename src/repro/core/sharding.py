"""Key placement: which database server (shard) owns which key.

The paper's deployment already supports several database servers, but treats
them as replicas of one logical database: every transaction is executed,
voted on and decided at *all* of them, so adding databases adds coordination
cost instead of capacity.  This module introduces the alternative reading --
a **partitioned** data tier -- as plain data:

* a :class:`Sharding` maps every storage key to its owning shard (database
  server) under a *placement policy*;
* the transaction path (application servers, baselines, spec checker) routes
  each request to its **participant set**: the owners of the keys the request
  touches, carried on :attr:`repro.core.types.Request.participants`;
* the storage layer (:mod:`repro.storage.kvstore`) asserts that a shard only
  ever manipulates keys it owns.

Placement policies
------------------

``replicate``
    The historical behaviour: every database owns every key, every request's
    participant set is the full database tier.  This is the default and keeps
    multi-database deployments byte-compatible with earlier versions.
``hash``
    A key belongs to ``shards[crc32(shard_key) % len(shards)]``.
``mod``
    Like ``hash`` but keyed on the trailing integer of the shard key
    (``account:{17}`` -> shard ``17 % d``), giving a predictable layout for
    index-structured key spaces; keys without a trailing integer fall back to
    the CRC-32 rule.

Shard keys use Redis-cluster-style *hash tags*: when a key contains a
``{...}`` substring, only that substring is hashed, so a workload can colocate
related keys (``flight:{PAR}:seats`` and ``hotel:{PAR}:rooms`` always land on
the same shard).  Keys without a tag hash as a whole.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

PLACEMENT_REPLICATE = "replicate"
PLACEMENT_HASH = "hash"
PLACEMENT_MOD = "mod"

KNOWN_PLACEMENTS = (PLACEMENT_REPLICATE, PLACEMENT_HASH, PLACEMENT_MOD)

_HASH_TAG = re.compile(r"\{([^{}]+)\}")
_TRAILING_INT = re.compile(r"(\d+)$")


def shard_key(key: str) -> str:
    """The part of ``key`` that placement hashes (its hash tag, if any)."""
    match = _HASH_TAG.search(key)
    return match.group(1) if match else key


@dataclass(frozen=True)
class Sharding:
    """Key -> shard ownership for one deployment's database tier.

    ``shards`` is the ordered tuple of database-server names; ``placement``
    selects the policy (see the module docstring).  The object is immutable
    and cheap, so every layer that needs routing decisions can hold its own
    reference.

    ``epoch`` stamps one *generation* of the placement: online reconfiguration
    replaces a sharding with a successor carrying ``epoch + 1`` (see
    :class:`ShardDirectory`), so traces, ``regA`` claims and the specification
    checker can tell which placement a transaction routed against.
    """

    shards: tuple[str, ...]
    placement: str = PLACEMENT_REPLICATE
    epoch: int = 0

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a sharding needs at least one shard")
        if len(set(self.shards)) != len(self.shards):
            raise ValueError(f"duplicate shard names in {self.shards!r}")
        if self.placement not in KNOWN_PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}; known: "
                             f"{', '.join(KNOWN_PLACEMENTS)}")
        if self.epoch < 0:
            raise ValueError(f"negative sharding epoch {self.epoch}")
        object.__setattr__(self, "shards", tuple(self.shards))

    def resized(self, shards: Sequence[str]) -> "Sharding":
        """The successor placement over ``shards``, stamped ``epoch + 1``."""
        return Sharding(shards=tuple(shards), placement=self.placement,
                        epoch=self.epoch + 1)

    # ------------------------------------------------------------- ownership

    @property
    def partitioned(self) -> bool:
        """Whether keys have a single owner (as opposed to full replication)."""
        return self.placement != PLACEMENT_REPLICATE

    def owner(self, key: str) -> Optional[str]:
        """The single owning shard of ``key``, or ``None`` under replication."""
        if not self.partitioned:
            return None
        return self.shards[self._index_of(key)]

    def _index_of(self, key: str) -> int:
        tag = shard_key(key)
        if self.placement == PLACEMENT_MOD:
            match = _TRAILING_INT.search(tag)
            if match is not None:
                return int(match.group(1)) % len(self.shards)
        return zlib.crc32(tag.encode("utf-8")) % len(self.shards)

    def owns(self, shard: str, key: str) -> bool:
        """Whether ``shard`` holds (a copy of) ``key``."""
        if not self.partitioned:
            return shard in self.shards
        return self.owner(key) == shard

    def participants(self, keys: Iterable[str]) -> tuple[str, ...]:
        """The participant set of a transaction touching ``keys``.

        Returns the owners of the keys, in shard order -- or the empty tuple
        under replication, which on :class:`~repro.core.types.Request` means
        "every database" (the protocol's historical fan-out).
        """
        if not self.partitioned:
            return ()
        owners = {self.owner(key) for key in keys}
        return tuple(shard for shard in self.shards if shard in owners)

    # ------------------------------------------------------------------ data

    def shard_data(self, shard: str, data: dict[str, Any]) -> dict[str, Any]:
        """The slice of ``data`` that ``shard`` should hold initially."""
        if not self.partitioned:
            return dict(data)
        return {key: value for key, value in data.items() if self.owner(key) == shard}

    def owner_predicate(self, shard: str) -> Optional[Callable[[str], bool]]:
        """A ``key -> owned?`` predicate for ``shard`` (``None`` = owns all).

        Installed on the shard's :class:`~repro.storage.kvstore.TransactionalKVStore`
        so misrouted reads/writes fail loudly instead of silently diverging.
        """
        if not self.partitioned:
            return None
        return lambda key: self.owner(key) == shard


# -------------------------------------------------------- request routing

# One implementation of the request->participants routing rules, shared by
# the e-Transaction application server and the three comparison middle tiers
# so partitioned-tier comparisons stay apples-to-apples by construction.


def request_participants(request: Any, db_server_names: Sequence[str]) -> list[str]:
    """The database servers taking part in ``request``'s transaction.

    An empty :attr:`~repro.core.types.Request.participants` tuple means every
    database; a non-empty one is filtered through ``db_server_names`` order so
    all servers iterate participants identically.
    """
    if request.participants:
        return [name for name in db_server_names if name in request.participants]
    return list(db_server_names)


def merge_participant_values(values: dict[str, Any],
                             participants: Sequence[str]) -> Any:
    """One business value out of the per-participant answers.

    With a single participant (the common case on a partitioned tier) the
    value passes through; with several, identical answers collapse to one and
    divergent answers are kept per database so the caller can see each
    shard's part.
    """
    if len(participants) == 1:
        return values[participants[0]]
    distinct = list(values.values())
    if all(value == distinct[0] for value in distinct[1:]):
        return distinct[0]
    return values


def validate_participants(request: Any, db_server_names: Sequence[str]) -> None:
    """Reject a request naming participants outside the deployment."""
    unknown = set(request.participants) - set(db_server_names)
    if unknown:
        raise ValueError(f"request {request.request_id} names unknown "
                         f"participant(s) {sorted(unknown)}; this deployment "
                         f"has databases {list(db_server_names)}")


# ------------------------------------------------------ online reconfiguration


class ShardDirectory:
    """The live, mutable view of a deployment's placement across epochs.

    A deployment that supports online resharding holds exactly one directory;
    every router (application servers, the storage ownership predicates, the
    reconfiguration coordinator) shares it by reference.  The directory always
    exposes a *current* :class:`Sharding` and, during a reconfiguration
    window, a *pending* successor:

    * :meth:`begin` opens the window -- traffic keeps routing against the
      current epoch, but keys whose owner changes under the pending placement
      are reported :meth:`moving` so the application tier can defer them;
    * :meth:`commit` atomically installs the pending placement as current
      (epoch advances by one) and closes the window.

    Ownership checks at the storage layer are deliberately *permissive during
    the window* (:meth:`owns`): a shard owns a key if either epoch says so,
    which lets migration install keys at their new owner before the switch
    without tripping :class:`~repro.storage.kvstore.ShardOwnershipError`.
    """

    def __init__(self, initial: Sharding):
        self.current = initial
        self.pending: Optional[Sharding] = None
        # Keys of transactions currently in flight at the application tier
        # (a refcount per key).  The migration snapshot refuses to run while
        # a *moving* key is retained, so a transaction that routed against
        # the old epoch always finishes against the old owner before its
        # data moves -- the drain half of "in-flight transactions drain on
        # the old epoch".
        self._retained: dict[str, int] = {}

    # ------------------------------------------------------------ transitions

    def begin(self, target: Sharding) -> None:
        """Open a reconfiguration window towards ``target``."""
        if self.pending is not None:
            raise ValueError("a reconfiguration is already in progress")
        if target.epoch != self.current.epoch + 1:
            raise ValueError(f"pending epoch {target.epoch} does not succeed "
                             f"current epoch {self.current.epoch}")
        if target.placement != self.current.placement:
            raise ValueError("reconfiguration cannot change the placement policy")
        self.pending = target

    def commit(self) -> Sharding:
        """Install the pending placement as current and close the window."""
        if self.pending is None:
            raise ValueError("no reconfiguration in progress")
        self.current, self.pending = self.pending, None
        return self.current

    # -------------------------------------------------------------- routing

    @property
    def epoch(self) -> int:
        """The epoch traffic currently routes against."""
        return self.current.epoch

    def participants(self, keys: Iterable[str]) -> tuple[str, ...]:
        """Participant set of ``keys`` under the current epoch."""
        return self.current.participants(keys)

    def moving(self, keys: Iterable[str]) -> bool:
        """Whether any of ``keys`` changes owner under the pending placement."""
        if self.pending is None:
            return False
        return any(self.current.owner(key) != self.pending.owner(key)
                   for key in keys)

    def owns(self, shard: str, key: str) -> bool:
        """Whether ``shard`` may hold ``key`` (either epoch during a window)."""
        if self.current.owns(shard, key):
            return True
        return self.pending is not None and self.pending.owns(shard, key)

    def owner_predicate(self, shard: str) -> Optional[Callable[[str], bool]]:
        """A live ``key -> owned?`` predicate for ``shard`` (``None`` = all)."""
        if not self.current.partitioned:
            return None
        return lambda key: self.owns(shard, key)

    # ------------------------------------------------------------- draining

    def retain(self, keys: Iterable[str]) -> None:
        """Mark ``keys`` as touched by an in-flight transaction."""
        for key in keys:
            self._retained[key] = self._retained.get(key, 0) + 1

    def release(self, keys: Iterable[str]) -> None:
        """Drop one in-flight reference per key (transaction finished)."""
        for key in keys:
            count = self._retained.get(key, 0) - 1
            if count <= 0:
                self._retained.pop(key, None)
            else:
                self._retained[key] = count

    def retained(self, keys: Iterable[str]) -> bool:
        """Whether any of ``keys`` belongs to an in-flight transaction."""
        return any(key in self._retained for key in keys)

    def migration_plan(self, source: str,
                       held_keys: Iterable[str]) -> dict[str, list[str]]:
        """Which of ``source``'s keys move where under the pending placement.

        Returns ``{destination shard: [keys]}`` for the keys ``source`` holds
        that the pending placement assigns elsewhere; empty outside a window.
        """
        plan: dict[str, list[str]] = {}
        if self.pending is None:
            return plan
        for key in held_keys:
            dest = self.pending.owner(key)
            if dest is not None and dest != source:
                plan.setdefault(dest, []).append(key)
        for keys in plan.values():
            keys.sort()
        return plan
