"""Bank-account workload (the workload measured in the paper's Appendix 3).

"The application server executes some SQL statements to update a bank account
on a single database, and ends the transaction."  We model a small bank: a set
of accounts with balances, and requests that debit, credit or transfer between
accounts.  The business logic runs inside the database transaction via the
:class:`~repro.storage.xa.TransactionView` handle.

Sharding.  With ``shard_tags=True`` the account keys carry a placement hash
tag (``account:{7}``) so a partitioned deployment can spread the accounts over
its database servers, and :meth:`BankWorkload.sharded_requests` builds a
request stream with a tunable **cross-shard fraction**: each request either
stays on one shard (a debit, credit or same-shard transfer) or transfers
between accounts on two different shards.  Every generated request carries its
participant set, and the business logic applies only the locally-owned half of
a transfer on each participant (guarded by ``view.owns``).
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Callable

from repro.core.sharding import Sharding
from repro.core.types import Request

DEBIT = "bank_debit"
CREDIT = "bank_credit"
TRANSFER = "bank_transfer"


class BankWorkload:
    """Accounts, request generation and business logic for the bank scenario.

    Parameters
    ----------
    num_accounts:
        Number of accounts (``account:0`` ... ``account:N-1``).
    initial_balance:
        Starting balance of every account.
    allow_overdraft:
        When ``False``, a debit that would make the balance negative returns an
        ``insufficient_funds`` result instead of applying the update -- a
        user-level abort in the paper's sense (a regular result value).
        Cross-shard transfers need ``True``: the funds check is a single-shard
        predicate, and no shard can see another shard's balance.
    shard_tags:
        Emit account keys with a placement hash tag (``account:{i}``), the
        form partitioned deployments route on.  Off by default so existing
        single-database key spaces are unchanged.
    """

    def __init__(self, num_accounts: int = 10, initial_balance: int = 1_000,
                 allow_overdraft: bool = False, shard_tags: bool = False):
        if num_accounts < 1:
            raise ValueError("need at least one account")
        self.num_accounts = num_accounts
        self.initial_balance = initial_balance
        self.allow_overdraft = allow_overdraft
        self.shard_tags = shard_tags

    # ------------------------------------------------------------------- data

    def account_key(self, index: int) -> str:
        """Storage key of account ``index``."""
        return f"account:{{{index}}}" if self.shard_tags else f"account:{index}"

    def initial_data(self) -> dict[str, Any]:
        """Initial committed database contents."""
        return {self.account_key(i): self.initial_balance for i in range(self.num_accounts)}

    # --------------------------------------------------------------- requests

    def debit(self, account: int, amount: int,
              participants: tuple[str, ...] = ()) -> Request:
        """A request debiting ``amount`` from ``account``."""
        return Request(DEBIT, {"account": account, "amount": amount},
                       participants=participants,
                       keys=(self.account_key(account),))

    def credit(self, account: int, amount: int,
               participants: tuple[str, ...] = ()) -> Request:
        """A request crediting ``amount`` to ``account``."""
        return Request(CREDIT, {"account": account, "amount": amount},
                       participants=participants,
                       keys=(self.account_key(account),))

    def transfer(self, source: int, destination: int, amount: int,
                 participants: tuple[str, ...] = ()) -> Request:
        """A request transferring ``amount`` between two accounts."""
        return Request(TRANSFER, {"source": source, "destination": destination,
                                  "amount": amount}, participants=participants,
                       keys=(self.account_key(source),
                             self.account_key(destination)))

    def sharded_requests(self, sharding: Sharding, cross_shard_fraction: float = 0.0,
                         seed: int = 0) -> Callable[[], Request]:
        """A deterministic factory of shard-aware requests.

        Each call returns the next request of the stream: with probability
        ``cross_shard_fraction`` a transfer between accounts owned by two
        different shards (when the placement yields at least two non-empty
        shards), otherwise a debit, credit or same-shard transfer on a single
        shard.  Every request carries the participant set of the keys it
        touches.
        """
        if not 0.0 <= cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be within [0, 1]")
        if cross_shard_fraction > 0 and not self.allow_overdraft \
                and sharding.partitioned and len(sharding.shards) > 1:
            # The insufficient-funds check is a single-shard predicate: the
            # destination shard cannot see the source balance, so an
            # overdraft-checking workload would credit the destination while
            # the source refuses -- creating money.  Refuse loudly instead.
            raise ValueError("cross-shard transfers need allow_overdraft=True "
                             "(the funds check cannot span shards)")
        by_shard: dict[str, list[int]] = {}
        for index in range(self.num_accounts):
            owner = sharding.owner(self.account_key(index))
            by_shard.setdefault(owner if owner is not None else "*", []).append(index)
        populated = [indices for indices in by_shard.values() if indices]
        rng = random.Random(zlib.crc32(f"{seed}\x00bank-shard-mix".encode("utf-8")))

        def participants_for(*indices: int) -> tuple[str, ...]:
            return sharding.participants(self.account_key(i) for i in indices)

        def next_request() -> Request:
            amount = rng.randint(1, 50)
            cross = (cross_shard_fraction > 0 and len(populated) >= 2
                     and rng.random() < cross_shard_fraction)
            if cross:
                first, second = rng.sample(range(len(populated)), 2)
                source = rng.choice(populated[first])
                destination = rng.choice(populated[second])
                return self.transfer(source, destination, amount,
                                     participants=participants_for(source, destination))
            group = populated[rng.randrange(len(populated))]
            kind = rng.choice([DEBIT, CREDIT, TRANSFER])
            if kind == TRANSFER and len(group) >= 2:
                source, destination = rng.sample(group, 2)
                return self.transfer(source, destination, amount,
                                     participants=participants_for(source, destination))
            account = rng.choice(group)
            participants = participants_for(account)
            if kind == DEBIT:
                return self.debit(account, amount, participants=participants)
            return self.credit(account, amount, participants=participants)

        return next_request

    # --------------------------------------------------------- business logic

    def business_logic(self, request: Request) -> Callable[[Any], Any]:
        """The function executed inside the database transaction."""
        if request.operation == DEBIT:
            return self._debit_logic(request)
        if request.operation == CREDIT:
            return self._credit_logic(request)
        if request.operation == TRANSFER:
            return self._transfer_logic(request)
        raise ValueError(f"unknown bank operation {request.operation!r}")

    def _debit_logic(self, request: Request) -> Callable[[Any], Any]:
        key = self.account_key(request.params["account"])
        amount = request.params["amount"]

        def logic(view: Any) -> Any:
            balance = view.read(key, 0)
            if not self.allow_overdraft and balance < amount:
                return {"status": "insufficient_funds", "balance": balance}
            view.write(key, balance - amount)
            return {"status": "ok", "account": key, "balance": balance - amount}

        return logic

    def _credit_logic(self, request: Request) -> Callable[[Any], Any]:
        key = self.account_key(request.params["account"])
        amount = request.params["amount"]

        def logic(view: Any) -> Any:
            balance = view.read(key, 0)
            view.write(key, balance + amount)
            return {"status": "ok", "account": key, "balance": balance + amount}

        return logic

    def _transfer_logic(self, request: Request) -> Callable[[Any], Any]:
        source = self.account_key(request.params["source"])
        destination = self.account_key(request.params["destination"])
        amount = request.params["amount"]

        def logic(view: Any) -> Any:
            # Each participant applies only its locally-owned half; on an
            # unpartitioned store both halves run, reproducing the classic
            # single-database transfer.  The insufficient-funds guard is
            # meaningful only when this shard owns the source -- which is why
            # cross-shard transfers require allow_overdraft (enforced by
            # sharded_requests): a destination-only half cannot check funds.
            result: dict[str, Any] = {"status": "ok", "from": source, "to": destination}
            if view.owns(source):
                source_balance = view.read(source, 0)
                if not self.allow_overdraft and source_balance < amount:
                    return {"status": "insufficient_funds", "balance": source_balance}
                view.write(source, source_balance - amount)
                result["source_balance"] = source_balance - amount
            if view.owns(destination):
                destination_balance = view.read(destination, 0)
                view.write(destination, destination_balance + amount)
                result["destination_balance"] = destination_balance + amount
            return result

        return logic

    # ------------------------------------------------------------- invariants

    def total_money(self, committed: dict[str, Any]) -> int:
        """Sum of all balances in a committed snapshot (conservation check)."""
        return sum(committed.get(self.account_key(i), 0) for i in range(self.num_accounts))
