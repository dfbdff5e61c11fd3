"""Credit-network semantics: trust lines canonicalized into low/high
records, direct XRP payments, path-based settlements over lender->borrower
chains (rippling), an order book with price-time priority, checks and
escrows, and partial payments.

Conventions fixed here:
  - RippleState.balance is signed from the low account's perspective;
    positive means the high account owes (issues to) the low account.
  - "Numerically lower" address resolves by byte-wise string comparison.
  - Paths are returned and executed in payment order, sender first; the
    trust line behind hop (p_i, p_i+1) has p_i+1 as lender and p_i as
    borrower, so settling increases what p_i owes p_i+1.
  - set_trust() creates lines with no_ripple=True (the post-2015 default);
    CSV ingestion defaults the flags to False because ingested rows model
    established gateway graphs.

Atomicity: every operation validates before its first write, and every
write to ledger state goes through a RippleLedger mutator that bumps
RippleLedger.writes. A rejected operation leaves `writes` unchanged, so
comparing the count before and after is at least as strict as comparing
state digests: it also catches a write that was later undone. Offers
and check cashing work out all their transfer legs, new trust lines and
their reserves included, before writing any (see _Legs).
state_digest() remains the snapshot-equality API.
"""

from __future__ import annotations

import csv
from bisect import insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Iterator, Sequence

from .core import (BadRecordError, EdgeList, Hyperedge, Hypergraph, LedgerError,
                   at_line, canonical_json, csv_row, encode_rows, int_cell)

__all__ = [
    "BASE_RESERVE_DROPS",
    "OWNER_RESERVE_DROPS",
    "CurrencyValue",
    "RippleAccount",
    "RippleState",
    "Offer",
    "Check",
    "Escrow",
    "PaymentSpec",
    "RippleLedger",
    "ReserveUnmetError",
    "BelowReserveError",
    "NoPathError",
    "DriedUpPathError",
    "ZeroDeliverableError",
    "UnfundedOfferError",
    "CheckError",
    "EscrowError",
    "AccountExistsError",
    "UnknownAccountError",
    "SelfTrustError",
    "NoLineError",
    "XrpRipplingError",
    "PartialXrpError",
    "UnknownOfferError",
    "fill_amounts",
    "load_trust_csv",
    "dump_trust_csv",
]

BASE_RESERVE_DROPS = 20_000_000  # 20 XRP
OWNER_RESERVE_DROPS = 5_000_000  # 5 XRP per owned object
PATH_DEPTH = 8  # most lines a discovered path may cross


class ReserveUnmetError(LedgerError):
    code = "reserve-unmet"


class BelowReserveError(LedgerError):
    code = "below-reserve"


class NoPathError(LedgerError):
    code = "no-path"


class DriedUpPathError(LedgerError):
    code = "dried-up-path"


class ZeroDeliverableError(LedgerError):
    code = "zero-deliverable"


class UnfundedOfferError(LedgerError):
    code = "unfunded-offer"


class CheckError(LedgerError):
    code = "check-error"


class EscrowError(LedgerError):
    code = "escrow-error"


class AccountExistsError(LedgerError):
    code = "account-exists"


class UnknownAccountError(LedgerError):
    code = "unknown-account"


class SelfTrustError(LedgerError):
    code = "self-trust"


class NoLineError(LedgerError):
    code = "no-line"


class XrpRipplingError(LedgerError):
    code = "xrp-rippling"


class PartialXrpError(LedgerError):
    code = "partial-xrp"


class UnknownOfferError(LedgerError):
    code = "unknown-offer"


@dataclass(frozen=True)
class CurrencyValue:
    """An amount of XRP (issuer None, currency 'XRP') or issued currency."""

    currency: str
    issuer: str | None
    value: int

    def __post_init__(self) -> None:
        if self.currency != "XRP" and len(self.currency) not in (3, 40):
            raise BadRecordError("currency code must be XRP or 3/40 characters")

    @property
    def is_xrp(self) -> bool:
        return self.currency == "XRP"

    @property
    def key(self) -> tuple[str, str | None]:
        return (self.currency, self.issuer)


@dataclass
class RippleAccount:
    address: str
    xrp_balance: int = 0  # drops
    owned_objects: int = 0

    def reserve_required(self) -> int:
        return BASE_RESERVE_DROPS + self.owned_objects * OWNER_RESERVE_DROPS


@dataclass
class RippleState:
    """Canonical record for one (pair, currency) trust relationship."""

    low: str
    high: str
    currency: str
    balance: int = 0  # positive: high owes low
    low_limit: int = 0
    high_limit: int = 0
    low_no_ripple: bool = False
    high_no_ripple: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise BadRecordError("low account must sort below high account")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.low, self.high, self.currency)

    def limit_of(self, side: str) -> int:
        return self.low_limit if side == self.low else self.high_limit

    def no_ripple_of(self, side: str) -> bool:
        return self.low_no_ripple if side == self.low else self.high_no_ripple


@dataclass
class Offer:
    owner: str
    taker_gets: CurrencyValue  # what the owner gives up
    taker_pays: CurrencyValue  # what the owner wants
    sequence: int
    gets_remaining: int = -1
    pays_remaining: int = -1

    def __post_init__(self) -> None:
        if self.taker_gets.key == self.taker_pays.key:
            raise BadRecordError("offer sides must differ in (currency, issuer)")
        if self.gets_remaining < 0:
            self.gets_remaining = self.taker_gets.value
        if self.pays_remaining < 0:
            self.pays_remaining = self.taker_pays.value

    @property
    def rate(self) -> Fraction:
        """Price demanded per unit given, locked at creation."""
        return Fraction(self.taker_pays.value, self.taker_gets.value)

    @property
    def live(self) -> bool:
        return self.gets_remaining > 0 and self.pays_remaining > 0


@dataclass
class Check:
    check_id: int
    sender: str
    receiver: str
    amount: CurrencyValue  # face value; cashable partially
    expiration: int | None = None
    cashed: int = 0

    @property
    def remaining(self) -> int:
        return self.amount.value - self.cashed


@dataclass
class Escrow:
    escrow_id: int
    sender: str
    receiver: str
    drops: int
    release_time: int
    expiration: int | None = None


@dataclass(frozen=True)
class PaymentSpec:
    account: str
    destination: str
    amount: CurrencyValue
    send_max: CurrencyValue | None = None
    pathset: tuple[tuple[str, ...], ...] = ()
    tf_no_direct_ripple: bool = False
    tf_partial_payment: bool = False


def fill_amounts(maker_gets_rem: int, rate: Fraction, taker_wants_rem: int,
                 taker_gives_rem: int) -> tuple[int, int]:
    """Fill quantities at the maker's rate: the taker acquires g units and
    pays p = ceil(g * rate), so the maker never receives below its rate
    and the taker keeps any surplus. Returns (g, p), possibly (0, 0)."""
    # g <= taker_gives_rem / rate, so g * rate and its ceiling stay
    # within the taker's integer budget
    g = min(maker_gets_rem, taker_wants_rem,
            floor(Fraction(taker_gives_rem) / rate))
    if g <= 0:
        return 0, 0
    return g, ceil(g * rate)


class RippleLedger:
    """Single-writer ledger with transaction-level validate-then-apply;
    every public operation either fully executes or leaves state intact.

    Every write goes through one of the mutators under "writes" below,
    each of which bumps `writes`; a rejected operation leaves `writes`
    as it found it. `line_index` maps (account, currency) to the
    account's lines in that currency, keyed by peer."""

    def __init__(self):
        self.accounts: dict[str, RippleAccount] = {}
        self.states: dict[tuple[str, str, str], RippleState] = {}
        self.state_owners: dict[tuple[str, str, str], set[str]] = {}
        self.line_index: dict[tuple[str, str], dict[str, RippleState]] = {}
        self.books: dict[tuple, list[tuple[Fraction, int, Offer]]] = {}
        self.offers_by_seq: dict[int, Offer] = {}
        self.checks: dict[int, Check] = {}
        self.escrows: dict[int, Escrow] = {}
        self.payments: list[dict] = []  # executed settlements, path order
        self.writes = 0
        self._seq = 0

    # -- writes ---------------------------------------------------------------

    def next_seq(self) -> int:
        self.writes += 1
        self._seq += 1
        return self._seq

    def create_account(self, address: str, xrp_drops: int = 0) -> RippleAccount:
        if xrp_drops < 0:
            raise BadRecordError("XRP balance must be >= 0")
        if address in self.accounts:
            raise AccountExistsError(f"account {address} exists")
        self.writes += 1
        acct = RippleAccount(address=address, xrp_balance=xrp_drops)
        self.accounts[address] = acct
        return acct

    def _add_line(self, state: RippleState, owners: set[str]) -> None:
        """Create a line; each owner carries its reserve."""
        self.writes += 1
        self.states[state.key] = state
        self.state_owners[state.key] = owners
        for owner in owners:
            self.accounts[owner].owned_objects += 1
        for account, peer in ((state.low, state.high), (state.high, state.low)):
            self.line_index.setdefault((account, state.currency), {})[peer] = state

    def _drop_line(self, key: tuple[str, str, str]) -> None:
        self.writes += 1
        state = self.states.pop(key)
        for owner in self.state_owners.pop(key):
            self.accounts[owner].owned_objects -= 1
        for account, peer in ((state.low, state.high), (state.high, state.low)):
            lines = self.line_index[(account, state.currency)]
            del lines[peer]
            if not lines:
                del self.line_index[(account, state.currency)]

    def _set_owner(self, key: tuple[str, str, str], address: str,
                   owns: bool) -> None:
        """Make the address an owner of the line (carrying its reserve)
        or release it."""
        self.writes += 1
        if owns:
            self.state_owners[key].add(address)
            self.accounts[address].owned_objects += 1
        else:
            self.state_owners[key].discard(address)
            self.accounts[address].owned_objects -= 1

    def _set_side(self, state: RippleState, side: str, limit: int,
                  no_ripple: bool) -> None:
        self.writes += 1
        if side == state.low:
            state.low_limit, state.low_no_ripple = limit, no_ripple
        else:
            state.high_limit, state.high_no_ripple = limit, no_ripple

    def _apply_debt(self, state: RippleState, lender: str, borrower: str,
                    amount: int) -> None:
        self.writes += 1
        # positive balance == high owes low
        if lender == state.low:
            state.balance += amount
        else:
            state.balance -= amount

    def _add_xrp(self, address: str, drops: int) -> None:
        self.writes += 1
        self.accounts[address].xrp_balance += drops

    def _record_payment(self, path: Sequence[str], currency: str,
                        requested: int, delivered: int) -> None:
        self.writes += 1
        self.payments.append({"path": tuple(path), "currency": currency,
                              "requested": requested, "delivered": delivered})

    def _commit(self, legs: _Legs) -> None:
        """Write transfer legs worked out by _Legs."""
        for address, drops in legs.xrp.items():
            self._add_xrp(address, drops)
        for key, owner in legs.new_lines.items():
            self._add_line(RippleState(*key), {owner})
        for key, change in legs.debt.items():
            state = self.states[key]
            self._apply_debt(state, state.low, state.high, change)

    def _fill(self, maker: Offer, taker: Offer, g: int, p: int) -> dict:
        """The maker gives g of its gets-currency for p of its
        pays-currency."""
        self.writes += 1
        maker.gets_remaining -= g
        maker.pays_remaining = max(0, maker.pays_remaining - p)
        taker.pays_remaining -= g
        taker.gets_remaining -= p
        return {"maker": maker.sequence, "taker": taker.sequence,
                "maker_gave": g, "maker_got": p}

    def _unbook(self, book: list, count: int) -> None:
        """Take the first `count` offers off a book."""
        self.writes += 1
        del book[:count]

    def _put_offer(self, offer: Offer, rest: bool) -> None:
        self.writes += 1
        if rest:
            own_key = (offer.taker_gets.key, offer.taker_pays.key)
            insort(self.books.setdefault(own_key, []),
                   (offer.rate, offer.sequence, offer))
        self.offers_by_seq[offer.sequence] = offer

    def _retire_offer(self, offer: Offer) -> None:
        self.writes += 1
        offer.gets_remaining = 0
        for book in self.books.values():
            book[:] = [(r, s, o) for (r, s, o) in book if s != offer.sequence]

    def _put_check(self, check: Check) -> None:
        self.writes += 1
        self.checks[check.check_id] = check
        self.accounts[check.sender].owned_objects += 1

    def _cash(self, check: Check, amount: int) -> None:
        self.writes += 1
        check.cashed += amount

    def _drop_check(self, check: Check) -> None:
        self.writes += 1
        del self.checks[check.check_id]
        self.accounts[check.sender].owned_objects -= 1

    def _put_escrow(self, escrow: Escrow) -> None:
        self.writes += 1
        self.escrows[escrow.escrow_id] = escrow
        self.accounts[escrow.sender].owned_objects += 1

    def _drop_escrow(self, escrow: Escrow) -> None:
        self.writes += 1
        del self.escrows[escrow.escrow_id]
        self.accounts[escrow.sender].owned_objects -= 1

    # -- basics -------------------------------------------------------------

    def account(self, address: str) -> RippleAccount:
        acct = self.accounts.get(address)
        if acct is None:
            raise UnknownAccountError(f"unknown account {address}")
        return acct

    def state_digest(self) -> str:
        """Canonical serialization of the whole ledger state, line owners,
        book order, payments and the sequence counter included."""
        payload = {
            "accounts": {
                a.address: [a.xrp_balance, a.owned_objects]
                for a in self.accounts.values()
            },
            "states": {
                "|".join(k): [s.balance, s.low_limit, s.high_limit,
                              s.low_no_ripple, s.high_no_ripple,
                              sorted(self.state_owners[k])]
                for k, s in self.states.items()
            },
            "books": {
                str(key): [[seq, o.owner, o.taker_gets.value, o.taker_pays.value,
                            o.gets_remaining, o.pays_remaining]
                           for _rate, seq, o in book]
                for key, book in self.books.items() if book
            },
            "checks": {str(c.check_id): [c.sender, c.receiver, c.remaining]
                       for c in self.checks.values()},
            "escrows": {str(e.escrow_id): [e.sender, e.receiver, e.drops]
                        for e in self.escrows.values()},
            "payments": self.payments,
            "sequence": self._seq,
        }
        return canonical_json(payload)

    # -- trust lines ----------------------------------------------------------

    @staticmethod
    def canonical_pair(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a < b else (b, a)

    def line(self, a: str, b: str, currency: str) -> RippleState | None:
        low, high = self.canonical_pair(a, b)
        return self.states.get((low, high, currency))

    def set_trust(self, lender: str, borrower: str, currency: str, limit: int,
                  no_ripple: bool = True) -> RippleState | None:
        """Create or update the lender's side of the canonical record.
        Creating a new record raises the lender's owner reserve; setting a
        zero limit on a zero-balance, otherwise-unused line deletes it."""
        if lender == borrower:
            raise SelfTrustError("cannot trust oneself")
        if limit < 0:
            raise BadRecordError("trust limit must be >= 0")
        self.account(borrower)
        low, high = self.canonical_pair(lender, borrower)
        key = (low, high, currency)
        state = self.states.get(key)
        if state is None:
            if limit == 0:
                return None
            self._require_owner_reserve(lender, "for a new trust line")
            state = RippleState(low=low, high=high, currency=currency)
            self._add_line(state, {lender})
        elif lender not in self.state_owners[key] and limit > 0:
            self._require_owner_reserve(lender, "to extend trust")
            self._set_owner(key, lender, True)
        self._set_side(state, lender, limit, no_ripple)
        if limit == 0 and lender in self.state_owners[key]:
            self._set_owner(key, lender, False)
        if state.balance == 0 and state.low_limit == 0 and state.high_limit == 0:
            self._drop_line(key)
            return None
        return state

    def _require_owner_reserve(self, lender: str, purpose: str) -> None:
        """Raise unless the lender's XRP covers one more owned object."""
        acct = self.account(lender)
        needed = acct.reserve_required() + OWNER_RESERVE_DROPS
        if acct.xrp_balance < needed:
            raise ReserveUnmetError(
                f"{lender} cannot cover reserve {needed} {purpose}")

    def adjust_line_debt(self, lender: str, borrower: str, currency: str,
                         amount: int) -> RippleState:
        """Raise the borrower's debt toward the lender (ingestion and
        gateway issue/redeem hook; bypasses capacity checks)."""
        state = self.line(lender, borrower, currency)
        if state is None:
            raise NoLineError(f"no {currency} line between {lender} and {borrower}")
        self._apply_debt(state, lender, borrower, amount)
        return state

    def available_capacity(self, state: RippleState, borrower: str) -> int:
        """Remaining credit the lender extends toward the borrower.
        No-ripple flags block whole paths, in _open_hops."""
        if borrower == state.high:
            capacity = state.low_limit - state.balance
        elif borrower == state.low:
            capacity = state.high_limit + state.balance
        else:
            raise ValueError(f"{borrower} is not on this line")
        return max(0, capacity)

    def net_positions(self, currency: str) -> dict[str, int]:
        """Signed holdings per account in one currency; always sums to 0."""
        positions: dict[str, int] = {}
        for state in self.states.values():
            if state.currency != currency:
                continue
            positions[state.low] = positions.get(state.low, 0) + state.balance
            positions[state.high] = positions.get(state.high, 0) - state.balance
        return positions

    # -- direct payments ------------------------------------------------------

    def direct_xrp_payment(self, sender: str, receiver: str, drops: int) -> None:
        """XRP transfer; needs no trust line. The sender must keep its
        reserve; a previously unfunded receiver must be funded to at least
        the base reserve by this very payment."""
        if drops <= 0:
            raise BadRecordError("payment must be positive")
        src = self.account(sender)
        dst = self.accounts.get(receiver)
        if src.xrp_balance - drops < src.reserve_required():
            raise BelowReserveError(
                f"{sender} would drop below its reserve "
                f"({src.xrp_balance - drops} < {src.reserve_required()})"
            )
        if dst is None:
            if drops < BASE_RESERVE_DROPS:
                raise BelowReserveError(
                    f"payment of {drops} cannot fund a new account "
                    f"(base reserve {BASE_RESERVE_DROPS})"
                )
            self.create_account(receiver)
        self._add_xrp(sender, -drops)
        self._add_xrp(receiver, drops)
        self._record_payment((sender, receiver), "XRP", drops, drops)

    # -- pathfinding ------------------------------------------------------------

    def _borrowers_of(self, lender: str, currency: str) -> list[tuple[str, RippleState]]:
        """Lines on which the lender extends credit, by borrower."""
        lines = self.line_index.get((lender, currency))
        if not lines:
            return []
        return [(borrower, state) for borrower, state in sorted(lines.items())
                if state.limit_of(lender) > 0]

    def _open_hops(self, payment_path: Sequence[str],
                   currency: str) -> list[RippleState] | None:
        """The path's lines, hop by hop, or None when the path is blocked."""
        # A missing line blocks. An intermediate node blocks rippling only
        # when its no_ripple flag is set on both incident lines.
        lines = []
        for i in range(len(payment_path) - 1):
            state = self.line(payment_path[i], payment_path[i + 1], currency)
            if state is None:
                return None
            lines.append(state)
        for i in range(1, len(payment_path) - 1):
            node = payment_path[i]
            if lines[i - 1].no_ripple_of(node) and lines[i].no_ripple_of(node):
                return None
        return lines

    def find_paths(self, spec: PaymentSpec) -> list[tuple[str, ...]]:
        """Every payment path for the spec, in payment order, shortest
        and lexicographically smallest first: the whole of
        _paths_by_length. Raises NoPathError when there is none."""
        return list(self._paths_by_length(spec))

    def _paths_by_length(self, spec: PaymentSpec) -> Iterator[tuple[str, ...]]:
        """Breadth-first enumeration of lender->borrower chains from the
        destination back to the sender, filtered by per-hop capacity and
        rippling flags, honoring the field constraints (sender first,
        SendMax issuer second, Amount issuer second-to-last, destination
        last). Chains leave the queue in nondecreasing length, so when
        the first chain of length L leaves it every path of length L is
        found: that length's paths are yielded then, sorted, before any
        longer chain is expanded. A caller that stops at the first path
        it can use never expands the longer chains. Raises NoPathError,
        after the last chain, when it yielded nothing."""
        currency = spec.amount.currency
        if currency == "XRP":
            raise XrpRipplingError(
                "XRP transfers are direct payments, not rippling")
        need = spec.amount.value if not spec.tf_partial_payment else 1
        shortest = 3 if spec.tf_no_direct_ripple else 2
        found: list[tuple[str, ...]] = []  # paths of one length, not yet yielded
        yielded = False
        queue: deque[tuple[str, ...]] = deque([(spec.destination,)])
        while queue:
            chain = queue.popleft()
            if found and len(chain) >= len(found[0]):
                found.sort()
                yield from found
                found, yielded = [], True
            if len(chain) > PATH_DEPTH:
                continue
            for borrower, state in self._borrowers_of(chain[-1], currency):
                if borrower in chain:
                    continue
                if self.available_capacity(state, borrower) < need:
                    continue
                nxt = chain + (borrower,)
                if borrower == spec.account:
                    payment_order = nxt[::-1]
                    if len(nxt) >= shortest and \
                            self._admissible(payment_order, spec) and \
                            self._open_hops(payment_order, currency) is not None:
                        found.append(payment_order)
                else:
                    queue.append(nxt)
        found.sort()
        yield from found
        if not (found or yielded):
            raise NoPathError(
                f"no {currency} path from {spec.account} to {spec.destination}"
            )

    @staticmethod
    def _admissible(payment_order: Sequence[str], spec: PaymentSpec) -> bool:
        """The issuer checks on a sender-to-destination path of two or
        more nodes, the only kind the search builds."""
        if spec.send_max is not None and spec.send_max.issuer is not None \
                and payment_order[1] != spec.send_max.issuer:
            return False
        return spec.amount.issuer is None or payment_order[-2] == spec.amount.issuer

    # -- rippling execution ----------------------------------------------------

    def _carried(self, path: Sequence[str], states: list[RippleState],
                 amount: int) -> int:
        """What the path carries of the amount: every hop carries the
        delivered amount, so the tightest hop bounds it."""
        return max(0, min([amount] + [self.available_capacity(state, path[i])
                                      for i, state in enumerate(states)]))

    def deliverable(self, path: Sequence[str], amount: int, currency: str) -> int:
        """Largest amount (<= requested) this path can carry right now; 0
        when blocked or exhausted. Never mutates."""
        states = self._open_hops(path, currency)
        if states is None:
            return 0
        return self._carried(path, states, amount)

    def execute_rippling(self, path: Sequence[str], amount: int, currency: str,
                         partial: bool = False) -> int:
        """Settle along a payment-order path; every hop's owed balance rises
        by the delivered amount or nothing changes at all. With
        partial=True the delivered amount shrinks to what the path can
        carry. Returns the delivered amount."""
        if len(path) < 2:
            raise BadRecordError("a path needs at least sender and destination")
        if amount <= 0:
            raise BadRecordError("amount must be positive")
        states = self._open_hops(path, currency)
        if states is None:
            raise self._blocked(path, currency)
        delivered = self._carried(path, states, amount)
        if delivered < amount and not partial:
            raise DriedUpPathError(
                f"path cannot carry {amount} {currency} at execution time"
            )
        if delivered <= 0:
            raise ZeroDeliverableError("path capacity is exhausted")
        for i, state in enumerate(states):
            self._apply_debt(state, lender=path[i + 1], borrower=path[i],
                             amount=delivered)
        self._record_payment(path, currency, amount, delivered)
        return delivered

    def _blocked(self, path: Sequence[str], currency: str) -> DriedUpPathError:
        """Why _open_hops blocks the path: its first missing line, else
        its no_ripple flags."""
        for a, b in zip(path, path[1:]):
            if self.line(a, b, currency) is None:
                return DriedUpPathError(f"no {currency} line between {a} and {b}")
        return DriedUpPathError("path blocked by no_ripple flags")

    def pay(self, spec: PaymentSpec) -> dict:
        """Full payment operation: XRP goes direct, issued currency settles
        over the first admissible path (explicit pathset first, then
        discovered paths)."""
        if spec.account == spec.destination:
            raise BadRecordError("a payment's account and destination must differ")
        if spec.amount.is_xrp:
            if spec.tf_partial_payment:
                raise PartialXrpError("direct XRP payments cannot be partial")
            self.direct_xrp_payment(spec.account, spec.destination,
                                    spec.amount.value)
            return {"delivered": spec.amount.value, "path": [spec.account,
                                                             spec.destination]}
        for path in spec.pathset:
            if len(path) < 2:
                raise BadRecordError("a path needs at least sender and destination")
            if (path[0], path[-1]) != (spec.account, spec.destination):
                raise BadRecordError(
                    "a path must run from the payment's account to its destination")
        # discovered paths come one length at a time, so the search stops
        # with the first path that executes (a full payment's first one
        # does: each of its hops has room for the amount); a rejected path
        # writes nothing, so the paths still to come see the ledger as it was
        candidates: Iterable[tuple[str, ...]] = (
            [tuple(p) for p in spec.pathset] or self._paths_by_length(spec))
        if spec.tf_partial_payment:
            # deliver as much as any single candidate path can carry; no
            # path carries more than the amount, so one that carries all of
            # it cannot be beaten and the search stops there
            best: tuple[int, tuple[str, ...]] | None = None
            for path in candidates:
                d = self.deliverable(path, spec.amount.value, spec.amount.currency)
                if d > 0 and (best is None or d > best[0]):
                    best = (d, path)
                    if d == spec.amount.value:
                        break
            if best is None:
                # discovered paths are open; explicit ones may all be blocked
                if spec.pathset and all(self._open_hops(p, spec.amount.currency) is None
                                        for p in spec.pathset):
                    raise self._blocked(spec.pathset[0], spec.amount.currency)
                raise ZeroDeliverableError("every candidate path is exhausted")
            delivered = self.execute_rippling(best[1], spec.amount.value,
                                              spec.amount.currency, partial=True)
            return {"delivered": delivered, "path": list(best[1])}
        errors: list[str] = []
        for path in candidates:
            writes = self.writes
            try:
                delivered = self.execute_rippling(path, spec.amount.value,
                                                  spec.amount.currency)
                return {"delivered": delivered, "path": list(path)}
            except BadRecordError:
                raise  # a malformed payment, not a path that dried up
            except LedgerError as exc:
                if self.writes != writes:
                    raise AssertionError(
                        f"a rejected path {path} wrote to the ledger") from exc
                errors.append(str(exc))
        raise DriedUpPathError("; ".join(errors) or "all candidate paths failed")

    # -- offers -----------------------------------------------------------------

    def create_offer(self, owner: str, taker_gets: CurrencyValue,
                     taker_pays: CurrencyValue) -> dict:
        """Match a new offer against the book at price-time priority;
        crossing fills execute at the makers' rates and any remainder
        rests as an offer object. Unfunded offers fail, and so does an
        offer whose fills would need a trust line that the receiving side
        cannot reserve; either way nothing is written."""
        if taker_gets.value <= 0 or taker_pays.value <= 0:
            raise BadRecordError("offer amounts must be positive")
        _require_issuer(taker_gets, taker_pays)
        legs = _Legs(self)
        if not legs.funded(owner, taker_gets, taker_gets.value):
            raise UnfundedOfferError(
                f"{owner} does not hold {taker_gets.value} {taker_gets.currency}"
            )
        self.account(owner)  # an issuer offering its own paper holds none
        taker = Offer(owner, taker_gets, taker_pays, sequence=self._seq + 1)
        book = self.books.get((taker_pays.key, taker_gets.key), [])
        planned, consumed = self._match(taker, book, legs)
        self.next_seq()
        self._commit(legs)
        fills = [self._fill(maker, taker, g, p) for maker, g, p in planned]
        if consumed:
            self._unbook(book, consumed)
        # below-reserve owners may only consume existing offers
        acct = self.accounts[owner]
        rested = taker.live and acct.xrp_balance >= acct.reserve_required()
        self._put_offer(taker, rested)
        return {"sequence": taker.sequence, "fills": fills, "rested": rested,
                "gets_remaining": taker.gets_remaining,
                "pays_remaining": taker.pays_remaining}

    def _match(self, taker: Offer, book: list,
               legs: _Legs) -> tuple[list[tuple[Offer, int, int]], int]:
        """Work out the fills of a new offer against the makers giving
        what it wants, best rate first, adding their legs to `legs`.
        Returns the fills as (maker, g, p) and how many offers at the head
        of the book leave it (filled, dead or unfunded). Writes nothing."""
        limit_rate = Fraction(taker.taker_gets.value, taker.taker_pays.value)
        gets_left, pays_left = taker.gets_remaining, taker.pays_remaining
        fills: list[tuple[Offer, int, int]] = []
        head = 0
        maker_left = None  # (gets, pays) still open on book[head]
        while gets_left > 0 and pays_left > 0 and head < len(book):
            rate, _seq, maker = book[head]
            if rate > limit_rate:
                break
            m_gets, m_pays = maker_left or (maker.gets_remaining,
                                            maker.pays_remaining)
            if m_gets <= 0 or m_pays <= 0 or \
                    not legs.funded(maker.owner, maker.taker_gets, min(m_gets, 1)):
                head, maker_left = head + 1, None
                continue
            g, p = fill_amounts(m_gets, rate, pays_left, gets_left)
            if g <= 0:
                break
            if not legs.funded(maker.owner, maker.taker_gets, g):
                head, maker_left = head + 1, None
                continue
            legs.move(maker.owner, maker.taker_gets, -g)
            legs.move(maker.owner, maker.taker_pays, p)
            legs.move(taker.owner, taker.taker_gets, -p)
            legs.move(taker.owner, taker.taker_pays, g)
            fills.append((maker, g, p))
            m_gets, m_pays = m_gets - g, max(0, m_pays - p)
            pays_left, gets_left = pays_left - g, gets_left - p
            if m_gets > 0 and m_pays > 0:
                maker_left = (m_gets, m_pays)
            else:
                head, maker_left = head + 1, None
        return fills, head

    def cancel_offer(self, owner: str, sequence: int) -> None:
        offer = self.offers_by_seq.get(sequence)
        if offer is None or offer.owner != owner:
            raise UnknownOfferError(f"no offer {sequence} owned by {owner}")
        self._retire_offer(offer)

    def book_rows(self) -> list[tuple]:
        """Deterministic listing of live resting offers."""
        rows = [(offer.taker_gets.key, offer.taker_pays.key,
                 seq, offer.gets_remaining, offer.pays_remaining)
                for book in self.books.values()
                for _rate, seq, offer in book if offer.live]
        rows.sort(key=lambda r: r[2])  # sequence numbers are unique
        return rows

    # -- checks -----------------------------------------------------------------

    def write_check(self, sender: str, receiver: str, amount: CurrencyValue,
                    expiration: int | None = None) -> Check:
        if sender == receiver:
            raise CheckError("cannot write a check to oneself")
        _require_issuer(amount)
        self.account(sender)
        self.account(receiver)
        check = Check(self.next_seq(), sender, receiver, amount, expiration)
        self._put_check(check)
        return check

    def cash_check(self, check_id: int, amount: int, now: int = 0) -> int:
        """Cash up to the remaining face value; the sender needs the funds
        only now, at cashing time. A receiver without a line to the issuer
        gets one, and must cover its reserve (UnfundedOfferError)."""
        check = self.checks.get(check_id)
        if check is None:
            raise CheckError(f"no check {check_id}")
        if check.expiration is not None and now > check.expiration:
            raise CheckError("expired")
        if not 0 < amount <= check.remaining:
            raise CheckError(f"cash amount {amount} exceeds remaining {check.remaining}")
        cv = check.amount
        legs = _Legs(self)
        if cv.is_xrp:
            src = self.account(check.sender)
            funded = src.xrp_balance - amount >= src.reserve_required()
        else:
            funded = legs.funded(check.sender, cv, amount)
        if not funded:
            raise CheckError("sender-unfunded-at-cash")
        legs.move(check.sender, cv, -amount)
        legs.move(check.receiver, cv, amount)
        self._commit(legs)
        self._cash(check, amount)
        if check.remaining == 0:
            self._drop_check(check)
        return amount

    def cancel_check(self, check_id: int, by: str) -> None:
        check = self.checks.get(check_id)
        if check is None:
            raise CheckError(f"no check {check_id}")
        if by not in (check.sender, check.receiver):
            raise CheckError("only the sender or receiver can cancel")
        self._drop_check(check)

    # -- escrows ----------------------------------------------------------------

    def create_escrow(self, sender: str, receiver: str, drops: int,
                      release_time: int, expiration: int | None = None) -> Escrow:
        """Lock XRP for a receiver (possibly the sender itself) until the
        release time; expiry returns the funds."""
        src = self.account(sender)
        self.account(receiver)  # the destination must already exist
        if drops <= 0:
            raise BadRecordError("escrow amount must be positive")
        if src.xrp_balance - drops < src.reserve_required():
            raise EscrowError("sender cannot lock below its reserve")
        self._add_xrp(sender, -drops)
        escrow = Escrow(self.next_seq(), sender, receiver, drops,
                        release_time, expiration)
        self._put_escrow(escrow)
        return escrow

    def finish_escrow(self, escrow_id: int, now: int) -> int:
        escrow = self.escrows.get(escrow_id)
        if escrow is None:
            raise EscrowError(f"no escrow {escrow_id}")
        if now < escrow.release_time:
            raise EscrowError("not-yet-releasable")
        if escrow.expiration is not None and now > escrow.expiration:
            raise EscrowError("expired")
        self._add_xrp(escrow.receiver, escrow.drops)
        self._drop_escrow(escrow)
        return escrow.drops

    def cancel_escrow(self, escrow_id: int, now: int) -> int:
        escrow = self.escrows.get(escrow_id)
        if escrow is None:
            raise EscrowError(f"no escrow {escrow_id}")
        if escrow.expiration is None or now <= escrow.expiration:
            raise EscrowError("escrow has not expired")
        self._add_xrp(escrow.sender, escrow.drops)
        self._drop_escrow(escrow)
        return escrow.drops

    # -- graph export -------------------------------------------------------------

    def payment_graph(self) -> Hypergraph:
        """Executed settlements as a hypergraph: one hyperedge per payment
        covering the whole path in traversal order (direct XRP payments
        are two-member edges)."""
        hg = Hypergraph()
        for i, p in enumerate(self.payments):
            hg.edges.append(Hyperedge(
                tuple(p["path"]), f"pay{i}",
                (("currency", p["currency"]),
                 ("delivered", p["delivered"]))))
        return hg

    def trust_graph(self) -> EdgeList:
        """Trust lines as a directed multigraph, one edge per extended
        (nonzero-limit) side, weight = limit, used balance as attribute."""
        graph = EdgeList()
        for key in sorted(self.states):
            s = self.states[key]
            for lender, borrower, limit, used in (
                    (s.low, s.high, s.low_limit, s.balance),
                    (s.high, s.low, s.high_limit, -s.balance)):
                if limit > 0:
                    graph.add(lender, borrower, limit, currency=s.currency,
                              used=max(0, used))
        return graph


class _Legs:
    """Transfer legs worked out against a ledger before any is written.

    `move` takes the legs in order, each crediting an account (debiting
    it when negative), and raises where the ledger could not carry one;
    `funded` reads the ledger as the legs so far would leave it.
    RippleLedger._commit then writes them all, so an operation that stops
    on a leg has written nothing. Every issued-currency leg names its
    issuer (_require_issuer)."""

    def __init__(self, ledger: RippleLedger):
        self.ledger = ledger
        self.xrp: dict[str, int] = {}  # drops per account
        self.debt: dict[tuple[str, str, str], int] = {}  # balance change per line
        self.new_lines: dict[tuple[str, str, str], str] = {}  # line -> owner

    def funded(self, address: str, cv: CurrencyValue, amount: int) -> bool:
        """Whether the address holds `amount` (> 0) of cv; an issued
        currency is held on the line with its issuer."""
        if cv.is_xrp:
            return (self.ledger.account(address).xrp_balance
                    + self.xrp.get(address, 0)) >= amount
        if cv.issuer == address:
            return True  # issuing one's own currency
        key = (*self.ledger.canonical_pair(address, cv.issuer), cv.currency)
        state = self.ledger.states.get(key)
        balance = (state.balance if state else 0) + self.debt.get(key, 0)
        return (balance if key[0] == address else -balance) >= amount

    def move(self, address: str, cv: CurrencyValue, amount: int) -> None:
        led = self.ledger
        if cv.is_xrp:
            led.account(address)
            self.xrp[address] = self.xrp.get(address, 0) + amount
            return
        if cv.issuer == address:
            return  # issuers redeem their own paper
        low, high = led.canonical_pair(address, cv.issuer)
        key = (low, high, cv.currency)
        if key not in led.states and key not in self.new_lines:
            # acquiring issued currency writes a trust line object; the
            # buyer carries the reserve for it
            acct = led.account(address)
            opened = sum(1 for owner in self.new_lines.values() if owner == address)
            needed = acct.reserve_required() + (opened + 1) * OWNER_RESERVE_DROPS
            if acct.xrp_balance + self.xrp.get(address, 0) < needed:
                raise UnfundedOfferError(
                    f"{address} cannot cover the reserve for a new {cv.currency} line"
                )
            self.new_lines[key] = address
        self.debt[key] = self.debt.get(key, 0) + (amount if low == address else -amount)


def _require_issuer(*amounts: CurrencyValue) -> None:
    """An offer or check moves issued currency on the line with its
    issuer, so its amounts must name one (a payment's need not: any
    issuer on a path will do)."""
    for cv in amounts:
        if not cv.is_xrp and cv.issuer is None:
            raise BadRecordError(f"a {cv.currency} amount in an offer or check "
                                 "must name its issuer")


def load_trust_csv(lines: Iterable[str]) -> RippleLedger:
    """Ingest `low,high,currency,balance,low_limit,high_limit` rows.
    Accounts are auto-created holding 100 XRP; flags default to False for
    ingested graphs.
    A row must have six cells, canonical order, limits >= 0 and a
    (low, high, currency) line of its own (BadRecordError), and its
    balance and limits must be base-10 integers (BadAmountError); each
    message names the 1-based line the record starts on. The lines are
    read as one CSV text, so a quoted cell may hold commas, doubled quotes
    and, when the lines keep their line ends, newlines; whitespace before
    a record or after a comma is skipped."""
    led = RippleLedger()
    # the reader pulls lines one at a time, so a line pulled right after a
    # whole record was read starts the next one: only it loses its indent
    reader = csv.reader((ln.lstrip() if reader.line_num + 1 == first_line else ln
                         for ln in lines), skipinitialspace=True)
    rows: list[tuple[int, list[str]]] = []  # (first line, cells)
    first_line = 1
    try:
        for cells in reader:
            rows.append((first_line, [c.strip() for c in cells]))
            first_line = reader.line_num + 1
    except csv.Error as exc:
        with at_line(first_line):
            raise BadRecordError(f"unreadable CSV row: {exc}") from None
    rows = [(n, cells) for n, cells in rows if cells not in ([], [""])]
    if rows and rows[0][1][0].lower() == "low":
        rows = rows[1:]
    for line_no, cells in rows:
        with at_line(line_no):
            state = _trust_row(cells)
            if state.key in led.states:
                raise BadRecordError(
                    f"duplicate trust line {','.join(state.key)}")
        for addr in (state.low, state.high):
            if addr not in led.accounts:
                led.create_account(addr, xrp_drops=100_000_000)
        led._add_line(state, {side for side in (state.low, state.high)
                              if state.limit_of(side) > 0})
    return led


def _trust_row(cells: list[str]) -> RippleState:
    if len(cells) != 6:
        raise BadRecordError(f"expected 6 cells, got {len(cells)}")
    low, high, currency = cells[:3]
    balance, low_limit, high_limit = map(
        int_cell, ("balance", "low_limit", "high_limit"), cells[3:])
    if low_limit < 0 or high_limit < 0:
        raise BadRecordError("trust limits must be >= 0")
    return RippleState(low, high, currency, balance, low_limit, high_limit)


def dump_trust_csv(ledger: RippleLedger) -> bytes:
    """Inverse of load_trust_csv: a header, then one row per trust line
    in key order."""
    rows = ["low,high,currency,balance,low_limit,high_limit"]
    rows += [csv_row([s.low, s.high, s.currency, str(s.balance),
                      str(s.low_limit), str(s.high_limit)])
             for _key, s in sorted(ledger.states.items())]
    return encode_rows(rows)
