"""Credit-network semantics: trust lines canonicalized into low/high
records, direct XRP payments, path-based settlements over lender->borrower
chains (rippling), an order book with price-time priority, checks and
escrows, partial payments and transfer fees.

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
"""

from __future__ import annotations

import copy
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Sequence

from .core import (BadRecordError, Edge, EdgeList, LedgerError, at_line,
                   canonical_json, int_cell)

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
    "DepositUnauthorizedError",
    "NoPathError",
    "DriedUpPathError",
    "ZeroDeliverableError",
    "UnfundedOfferError",
    "CheckError",
    "EscrowError",
    "fill_amounts",
    "load_trust_csv",
    "dump_trust_csv",
]

BASE_RESERVE_DROPS = 20_000_000  # 20 XRP
OWNER_RESERVE_DROPS = 5_000_000  # 5 XRP; artifact default, configurable
DEFAULT_PATH_DEPTH = 8


class ReserveUnmetError(LedgerError):
    code = "reserve-unmet"


class BelowReserveError(LedgerError):
    code = "below-reserve"


class DepositUnauthorizedError(LedgerError):
    code = "deposit-unauthorized"


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


@dataclass(frozen=True)
class CurrencyValue:
    """An amount of XRP (issuer None, currency 'XRP') or issued currency."""

    currency: str
    issuer: str | None
    value: int

    def __post_init__(self) -> None:
        if self.currency != "XRP" and len(self.currency) not in (3, 40):
            raise ValueError("currency code must be XRP or 3/40 characters")

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
    deposit_auth: bool = False
    default_ripple: bool = False
    require_dest: bool = False  # recognized but never enforced
    authorized: set[str] = field(default_factory=set)
    transfer_fee_rate: Fraction = Fraction(0)
    frozen_currencies: set[str] = field(default_factory=set)

    def reserve_required(self, base: int = BASE_RESERVE_DROPS,
                         owner: int = OWNER_RESERVE_DROPS) -> int:
        return base + self.owned_objects * owner


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
    frozen: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError("low account must sort below high account")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.low, self.high, self.currency)

    def no_ripple_of(self, side: str) -> bool:
        return self.low_no_ripple if side == self.low else self.high_no_ripple


def infer_issuer(state: RippleState) -> str:
    """Positive balance: the high account issued it. Negative: the low
    account. Zero: limits are not reliable evidence."""
    if state.balance > 0:
        return "high"
    if state.balance < 0:
        return "low"
    return "indeterminate"


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
            raise ValueError("offer sides must differ in (currency, issuer)")
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
    g = min(maker_gets_rem, taker_wants_rem,
            floor(Fraction(taker_gives_rem) / rate))
    if g <= 0:
        return 0, 0
    p = ceil(g * rate)
    if p > taker_gives_rem:
        g -= 1
        p = ceil(g * rate) if g > 0 else 0
    if g <= 0:
        return 0, 0
    return g, p


class RippleLedger:
    """Single-writer ledger with transaction-level validate-then-apply;
    every public operation either fully executes or leaves state intact."""

    def __init__(self, base_reserve: int = BASE_RESERVE_DROPS,
                 owner_reserve: int = OWNER_RESERVE_DROPS,
                 path_depth: int = DEFAULT_PATH_DEPTH):
        self.base_reserve = base_reserve
        self.owner_reserve = owner_reserve
        self.path_depth = path_depth
        self.accounts: dict[str, RippleAccount] = {}
        self.states: dict[tuple[str, str, str], RippleState] = {}
        self.state_owners: dict[tuple[str, str, str], set[str]] = {}
        self.books: dict[tuple, list[tuple[Fraction, int, Offer]]] = {}
        self.offers_by_seq: dict[int, Offer] = {}
        self.checks: dict[int, Check] = {}
        self.escrows: dict[int, Escrow] = {}
        self.payments: list[dict] = []  # executed settlements, path order
        self._seq = 0

    # -- basics -------------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def create_account(self, address: str, xrp_drops: int = 0) -> RippleAccount:
        if address in self.accounts:
            raise LedgerError(f"account {address} exists")
        acct = RippleAccount(address=address, xrp_balance=xrp_drops)
        self.accounts[address] = acct
        return acct

    def account(self, address: str) -> RippleAccount:
        acct = self.accounts.get(address)
        if acct is None:
            raise LedgerError(f"unknown account {address}")
        return acct

    def reserve_required(self, address: str) -> int:
        return self.account(address).reserve_required(self.base_reserve,
                                                      self.owner_reserve)

    def state_digest(self) -> str:
        """Canonical serialization for snapshot-equality assertions."""
        payload = {
            "accounts": {
                a.address: [a.xrp_balance, a.owned_objects, a.deposit_auth,
                            sorted(a.authorized), str(a.transfer_fee_rate),
                            sorted(a.frozen_currencies)]
                for a in self.accounts.values()
            },
            "states": {
                "|".join(k): [s.balance, s.low_limit, s.high_limit,
                              s.low_no_ripple, s.high_no_ripple, s.frozen]
                for k, s in self.states.items()
            },
            "offers": {
                str(seq): [o.owner, o.taker_gets.currency, o.taker_gets.issuer or "",
                           o.taker_pays.currency, o.taker_pays.issuer or "",
                           o.gets_remaining, o.pays_remaining]
                for seq, o in self.offers_by_seq.items() if o.live
            },
            "checks": {str(c.check_id): [c.sender, c.receiver, c.remaining]
                       for c in self.checks.values()},
            "escrows": {str(e.escrow_id): [e.sender, e.receiver, e.drops]
                        for e in self.escrows.values()},
        }
        return canonical_json(payload)

    def snapshot(self) -> "RippleLedger":
        return copy.deepcopy(self)

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
            raise LedgerError("cannot trust oneself")
        if limit < 0:
            raise ValueError("trust limit must be >= 0")
        self.account(borrower)
        low, high = self.canonical_pair(lender, borrower)
        key = (low, high, currency)
        state = self.states.get(key)
        creating = state is None
        if creating:
            if limit == 0:
                return None
            acct = self.account(lender)
            needed = self.base_reserve + (acct.owned_objects + 1) * self.owner_reserve
            if acct.xrp_balance < needed:
                raise ReserveUnmetError(
                    f"{lender} cannot cover reserve {needed} for a new trust line"
                )
            state = RippleState(low=low, high=high, currency=currency)
            self.states[key] = state
            self.state_owners[key] = set()
        owners = self.state_owners[key]
        if lender not in owners and limit > 0:
            if not creating:
                acct = self.account(lender)
                needed = self.base_reserve + (acct.owned_objects + 1) * self.owner_reserve
                if acct.xrp_balance < needed:
                    raise ReserveUnmetError(
                        f"{lender} cannot cover reserve {needed} to extend trust"
                    )
            owners.add(lender)
            self.account(lender).owned_objects += 1
        if lender == low:
            state.low_limit = limit
            state.low_no_ripple = no_ripple
        else:
            state.high_limit = limit
            state.high_no_ripple = no_ripple
        if limit == 0 and lender in owners:
            owners.discard(lender)
            self.account(lender).owned_objects -= 1
        if (state.balance == 0 and state.low_limit == 0 and state.high_limit == 0):
            for owner in owners:
                self.account(owner).owned_objects -= 1
            del self.states[key]
            del self.state_owners[key]
            return None
        return state

    def set_no_ripple(self, account: str, peer: str, currency: str,
                      flag: bool = True) -> RippleState:
        """Flip the account's own rippling opt-out on an existing line
        (each side owns its flag regardless of which side extended trust)."""
        state = self.line(account, peer, currency)
        if state is None:
            raise LedgerError(f"no {currency} line between {account} and {peer}")
        if account == state.low:
            state.low_no_ripple = flag
        else:
            state.high_no_ripple = flag
        return state

    def adjust_line_debt(self, lender: str, borrower: str, currency: str,
                         amount: int) -> RippleState:
        """Raise the borrower's debt toward the lender (ingestion and
        gateway issue/redeem hook; bypasses capacity checks)."""
        state = self.line(lender, borrower, currency)
        if state is None:
            raise LedgerError(f"no {currency} line between {lender} and {borrower}")
        self._apply_debt(state, lender, borrower, amount)
        return state

    def _apply_debt(self, state: RippleState, lender: str, borrower: str,
                    amount: int) -> None:
        # positive balance == high owes low
        if lender == state.low:
            state.balance += amount
        else:
            state.balance -= amount

    def available_capacity(self, state: RippleState, borrower: str,
                           rippling: bool = False) -> int:
        """Remaining credit the lender extends toward the borrower. For
        rippling use, frozen lines and lines whose lender disallows
        rippling report zero; first/last-hop use passes rippling=False."""
        if borrower == state.high:
            lender = state.low
            capacity = state.low_limit - state.balance
        elif borrower == state.low:
            lender = state.high
            capacity = state.high_limit + state.balance
        else:
            raise ValueError(f"{borrower} is not on this line")
        if rippling and (self._effectively_frozen(state) or state.no_ripple_of(lender)):
            return 0
        return max(0, capacity)

    def _effectively_frozen(self, state: RippleState) -> bool:
        if state.frozen:
            return True
        for side in (state.low, state.high):
            acct = self.accounts.get(side)
            if acct and state.currency in acct.frozen_currencies:
                return True
        return False

    def net_positions(self, currency: str) -> dict[str, int]:
        """Signed holdings per account in one currency; always sums to 0."""
        positions: dict[str, int] = {}
        for state in self.states.values():
            if state.currency != currency:
                continue
            positions[state.low] = positions.get(state.low, 0) + state.balance
            positions[state.high] = positions.get(state.high, 0) - state.balance
        return positions

    def holding(self, address: str, currency: str, issuer: str | None) -> int:
        """Spendable amount of an issued currency (net positive position on
        the line with the issuer), or the XRP balance."""
        if currency == "XRP":
            return self.account(address).xrp_balance
        if issuer is None:
            return max(0, sum(
                (s.balance if s.low == address else -s.balance)
                for s in self.states.values()
                if s.currency == currency and address in (s.low, s.high)))
        state = self.line(address, issuer, currency)
        if state is None:
            return 0
        pos = state.balance if state.low == address else -state.balance
        return max(0, pos)

    # -- direct payments ------------------------------------------------------

    def direct_xrp_payment(self, sender: str, receiver: str, drops: int) -> None:
        """XRP transfer; needs no trust line. The sender must keep its
        reserve; a previously unfunded receiver must be funded to at least
        the base reserve by this very payment."""
        if drops <= 0:
            raise ValueError("payment must be positive")
        src = self.account(sender)
        dst = self.accounts.get(receiver)
        if src.xrp_balance - drops < self.reserve_required(sender):
            raise BelowReserveError(
                f"{sender} would drop below its reserve "
                f"({src.xrp_balance - drops} < {self.reserve_required(sender)})"
            )
        if dst is None:
            if drops < self.base_reserve:
                raise BelowReserveError(
                    f"payment of {drops} cannot fund a new account "
                    f"(base reserve {self.base_reserve})"
                )
            dst = self.create_account(receiver)
        if dst.deposit_auth and sender not in dst.authorized:
            raise DepositUnauthorizedError(f"{receiver} requires deposit authorization")
        src.xrp_balance -= drops
        dst.xrp_balance += drops
        self.payments.append({"path": (sender, receiver), "currency": "XRP",
                              "requested": drops, "delivered": drops})

    # -- pathfinding ------------------------------------------------------------

    def _borrowers_of(self, lender: str, currency: str) -> list[tuple[str, RippleState]]:
        out = []
        for state in self.states.values():
            if state.currency != currency:
                continue
            if lender == state.low and state.low_limit > 0:
                out.append((state.high, state))
            elif lender == state.high and state.high_limit > 0:
                out.append((state.low, state))
        out.sort(key=lambda p: p[0])
        return out

    def _path_flags_ok(self, payment_path: Sequence[str], currency: str) -> bool:
        # An intermediate node blocks rippling only when its no_ripple flag
        # is set on both incident lines; an account-level default_ripple
        # overrides the per-line flags. Frozen lines block at any hop.
        lines = []
        for i in range(len(payment_path) - 1):
            state = self.line(payment_path[i], payment_path[i + 1], currency)
            if state is None or self._effectively_frozen(state):
                return False
            lines.append(state)
        for i in range(1, len(payment_path) - 1):
            node = payment_path[i]
            acct = self.accounts.get(node)
            if acct is not None and acct.default_ripple:
                continue
            if lines[i - 1].no_ripple_of(node) and lines[i].no_ripple_of(node):
                return False
        return True

    def find_paths(self, spec: PaymentSpec) -> list[tuple[str, ...]]:
        """Breadth-first enumeration of lender->borrower chains from the
        destination back to the sender, filtered by per-hop capacity and
        rippling flags, honoring the field constraints (sender first,
        SendMax issuer second, Amount issuer second-to-last, destination
        last). Returned in payment order, shortest and lexicographically
        smallest first."""
        currency = spec.amount.currency
        if currency == "XRP":
            raise LedgerError("XRP transfers are direct payments, not rippling")
        need = spec.amount.value if not spec.tf_partial_payment else 1
        found: list[tuple[str, ...]] = []
        queue: list[tuple[str, ...]] = [(spec.destination,)]
        while queue:
            chain = queue.pop(0)
            node = chain[-1]
            if len(chain) > self.path_depth:
                continue
            for borrower, state in self._borrowers_of(node, currency):
                if borrower in chain:
                    continue
                if self.available_capacity(state, borrower, rippling=False) < need:
                    continue
                nxt = chain + (borrower,)
                if borrower == spec.account:
                    payment_order = tuple(reversed(nxt))
                    if self._admissible(payment_order, spec) and \
                            self._path_flags_ok(payment_order, currency):
                        found.append(payment_order)
                else:
                    queue.append(nxt)
        if spec.tf_no_direct_ripple:
            found = [p for p in found if len(p) > 2]
        found.sort(key=lambda p: (len(p), p))
        if not found:
            raise NoPathError(
                f"no {currency} path from {spec.account} to {spec.destination}"
            )
        return found

    @staticmethod
    def _admissible(payment_order: Sequence[str], spec: PaymentSpec) -> bool:
        if payment_order[0] != spec.account or payment_order[-1] != spec.destination:
            return False
        if spec.send_max is not None and spec.send_max.issuer is not None:
            if len(payment_order) < 2 or payment_order[1] != spec.send_max.issuer:
                return False
        if spec.amount.issuer is not None:
            if len(payment_order) < 2 or payment_order[-2] != spec.amount.issuer:
                return False
        return True

    # -- rippling execution ----------------------------------------------------

    def _hop_states(self, path: Sequence[str], currency: str) -> list[RippleState]:
        states = []
        for i in range(len(path) - 1):
            state = self.line(path[i], path[i + 1], currency)
            if state is None:
                raise DriedUpPathError(
                    f"no {currency} line between {path[i]} and {path[i + 1]}"
                )
            states.append(state)
        return states

    def _hop_amounts(self, path: Sequence[str], delivered: int) -> list[int]:
        """Hop i carries the delivered amount plus the transfer fees of all
        intermediaries between that hop and the destination (sender pays)."""
        k = len(path) - 1
        fees = []
        for node in path[1:-1]:
            rate = self.accounts.get(node, RippleAccount(node)).transfer_fee_rate
            fees.append(floor(delivered * rate))
        amounts = []
        for i in range(k):
            downstream = sum(fees[i:])  # fees of intermediates p_{i+1}..p_{k-1}
            amounts.append(delivered + downstream)
        return amounts

    def _path_feasible(self, path: Sequence[str], states: list[RippleState],
                       delivered: int) -> bool:
        amounts = self._hop_amounts(path, delivered)
        for i, state in enumerate(states):
            borrower = path[i]
            if self.available_capacity(state, borrower, rippling=False) < amounts[i]:
                return False
        return True

    def deliverable(self, path: Sequence[str], amount: int, currency: str) -> int:
        """Largest amount (<= requested) this path can carry right now,
        fees included; 0 when blocked or exhausted. Never mutates."""
        if not self._path_flags_ok(path, currency):
            return 0
        try:
            states = self._hop_states(path, currency)
        except LedgerError:
            return 0
        lo, hi = 0, amount
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._path_feasible(path, states, mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def execute_rippling(self, path: Sequence[str], amount: int, currency: str,
                         partial: bool = False) -> int:
        """Settle along a payment-order path; every hop's owed balance rises
        by its hop amount or nothing changes at all. With partial=True the
        delivered amount shrinks to what the path can carry. Returns the
        delivered amount."""
        if len(path) < 2:
            raise ValueError("a path needs at least sender and destination")
        if amount <= 0:
            raise ValueError("amount must be positive")
        if not self._path_flags_ok(path, currency):
            raise DriedUpPathError("path blocked by frozen line or no_ripple flags")
        states = self._hop_states(path, currency)
        if self._path_feasible(path, states, amount):
            delivered = amount
        elif not partial:
            raise DriedUpPathError(
                f"path cannot carry {amount} {currency} at execution time"
            )
        else:
            lo, hi = 0, amount  # feasibility is monotone in the delivered amount
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self._path_feasible(path, states, mid):
                    lo = mid
                else:
                    hi = mid - 1
            delivered = lo
            if delivered <= 0:
                raise ZeroDeliverableError("path capacity is exhausted")
        amounts = self._hop_amounts(path, delivered)
        for i, state in enumerate(states):
            self._apply_debt(state, lender=path[i + 1], borrower=path[i],
                             amount=amounts[i])
        self.payments.append({"path": tuple(path), "currency": currency,
                              "requested": amount, "delivered": delivered})
        return delivered

    def pay(self, spec: PaymentSpec) -> dict:
        """Full payment operation: XRP goes direct, issued currency settles
        over the first admissible path (explicit pathset first, then
        discovered paths)."""
        if spec.amount.is_xrp:
            if spec.tf_partial_payment:
                raise LedgerError("direct XRP payments cannot be partial")
            self.direct_xrp_payment(spec.account, spec.destination,
                                    spec.amount.value)
            return {"delivered": spec.amount.value, "path": [spec.account,
                                                             spec.destination]}
        dst = self.accounts.get(spec.destination)
        if dst is not None and dst.deposit_auth and spec.account not in dst.authorized:
            raise DepositUnauthorizedError(
                f"{spec.destination} requires deposit authorization")
        candidates: list[tuple[str, ...]] = [tuple(p) for p in spec.pathset]
        if not candidates:
            candidates = self.find_paths(spec)
        if spec.tf_partial_payment:
            # deliver as much as any single candidate path can carry
            best: tuple[int, tuple[str, ...]] | None = None
            for path in candidates:
                d = self.deliverable(path, spec.amount.value, spec.amount.currency)
                if d > 0 and (best is None or d > best[0]):
                    best = (d, path)
            if best is None:
                raise ZeroDeliverableError("every candidate path is exhausted")
            delivered = self.execute_rippling(best[1], spec.amount.value,
                                              spec.amount.currency, partial=True)
            return {"delivered": delivered, "path": list(best[1])}
        errors: list[str] = []
        for path in candidates:
            before = self.state_digest()
            try:
                delivered = self.execute_rippling(path, spec.amount.value,
                                                  spec.amount.currency)
                return {"delivered": delivered, "path": list(path)}
            except LedgerError as exc:
                assert self.state_digest() == before  # atomicity
                errors.append(str(exc))
        raise DriedUpPathError("; ".join(errors) or "all candidate paths failed")

    # -- offers -----------------------------------------------------------------

    def _credit(self, address: str, cv: CurrencyValue, amount: int,
                allow_new_line: bool = True) -> None:
        if cv.is_xrp:
            self.account(address).xrp_balance += amount
            return
        issuer = cv.issuer
        if issuer is None or issuer == address:
            return  # issuers redeem their own paper
        state = self.line(address, issuer, currency=cv.currency)
        if state is None:
            if not allow_new_line:
                raise UnfundedOfferError(f"{address} has no {cv.currency} line")
            # acquiring issued currency writes a trust line object; the
            # buyer carries the reserve for it
            acct = self.account(address)
            needed = self.base_reserve + (acct.owned_objects + 1) * self.owner_reserve
            if acct.xrp_balance < needed:
                raise UnfundedOfferError(
                    f"{address} cannot cover the reserve for a new {cv.currency} line"
                )
            low, high = self.canonical_pair(address, issuer)
            state = RippleState(low=low, high=high, currency=cv.currency)
            self.states[(low, high, cv.currency)] = state
            self.state_owners[(low, high, cv.currency)] = {address}
            acct.owned_objects += 1
        if state.low == address:
            state.balance += amount
        else:
            state.balance -= amount

    def _debit(self, address: str, cv: CurrencyValue, amount: int) -> None:
        if cv.is_xrp:
            self.account(address).xrp_balance -= amount
            return
        if cv.issuer is None or cv.issuer == address:
            return
        self._credit(address, cv, -amount)

    def _funded(self, address: str, cv: CurrencyValue, amount: int) -> bool:
        if cv.is_xrp:
            return self.account(address).xrp_balance >= amount
        if cv.issuer == address:
            return True  # issuing one's own currency
        return self.holding(address, cv.currency, cv.issuer) >= amount

    def create_offer(self, owner: str, taker_gets: CurrencyValue,
                     taker_pays: CurrencyValue) -> dict:
        """Match a new offer against the book at price-time priority;
        crossing fills execute at the makers' rates and any remainder
        rests as an offer object. Unfunded offers fail."""
        if taker_gets.value <= 0 or taker_pays.value <= 0:
            raise ValueError("offer amounts must be positive")
        if not self._funded(owner, taker_gets, taker_gets.value):
            raise UnfundedOfferError(
                f"{owner} does not hold {taker_gets.value} {taker_gets.currency}"
            )
        taker = Offer(owner, taker_gets, taker_pays, self.next_seq())
        limit_rate = Fraction(taker_gets.value, taker_pays.value)
        book_key = (taker_pays.key, taker_gets.key)  # makers giving what we want
        book = self.books.setdefault(book_key, [])
        fills = []
        while taker.live and book:
            rate, seq, maker = book[0]
            if rate > limit_rate:
                break
            if not maker.live or not self._funded(maker.owner, maker.taker_gets,
                                                  min(maker.gets_remaining, 1)):
                book.pop(0)
                continue
            g, p = fill_amounts(maker.gets_remaining, rate,
                                taker.pays_remaining, taker.gets_remaining)
            if g <= 0:
                break
            if not self._funded(maker.owner, maker.taker_gets, g):
                book.pop(0)
                continue
            # maker gives g of its gets-currency for p of its pays-currency
            self._debit(maker.owner, maker.taker_gets, g)
            self._credit(maker.owner, maker.taker_pays, p)
            self._debit(taker.owner, taker.taker_gets, p)
            self._credit(taker.owner, taker.taker_pays, g)
            maker.gets_remaining -= g
            maker.pays_remaining = max(0, maker.pays_remaining - p)
            taker.pays_remaining -= g
            taker.gets_remaining -= p
            fills.append({"maker": maker.sequence, "taker": taker.sequence,
                          "maker_gave": g, "maker_got": p})
            if not maker.live:
                book.pop(0)
        rested = False
        if taker.live:
            acct = self.account(owner)
            if acct.xrp_balance >= self.reserve_required(owner):
                own_key = (taker.taker_gets.key, taker.taker_pays.key)
                insort(self.books.setdefault(own_key, []),
                       (taker.rate, taker.sequence, taker))
                rested = True
            # below-reserve owners may only consume existing offers
        self.offers_by_seq[taker.sequence] = taker
        return {"sequence": taker.sequence, "fills": fills, "rested": rested,
                "gets_remaining": taker.gets_remaining,
                "pays_remaining": taker.pays_remaining}

    def cancel_offer(self, owner: str, sequence: int) -> None:
        offer = self.offers_by_seq.get(sequence)
        if offer is None or offer.owner != owner:
            raise LedgerError(f"no offer {sequence} owned by {owner}")
        offer.gets_remaining = 0
        for book in self.books.values():
            book[:] = [(r, s, o) for (r, s, o) in book if s != sequence]

    def book_rows(self) -> list[tuple]:
        """Deterministic listing of live resting offers."""
        rows = []
        for key in sorted(self.books, key=str):
            for rate, seq, offer in self.books[key]:
                if offer.live:
                    rows.append((offer.taker_gets.key, offer.taker_pays.key,
                                 seq, offer.gets_remaining, offer.pays_remaining))
        rows.sort(key=lambda r: r[2])
        return rows

    # -- checks -----------------------------------------------------------------

    def write_check(self, sender: str, receiver: str, amount: CurrencyValue,
                    expiration: int | None = None) -> Check:
        if sender == receiver:
            raise CheckError("cannot write a check to oneself")
        self.account(sender)
        self.account(receiver)
        check = Check(self.next_seq(), sender, receiver, amount, expiration)
        self.checks[check.check_id] = check
        self.account(sender).owned_objects += 1
        return check

    def cash_check(self, check_id: int, amount: int, now: int = 0) -> int:
        """Cash up to the remaining face value; the sender needs the funds
        only now, at cashing time. Checks may pay deposit-auth receivers."""
        check = self.checks.get(check_id)
        if check is None:
            raise CheckError(f"no check {check_id}")
        if check.expiration is not None and now > check.expiration:
            raise CheckError("expired")
        if not 0 < amount <= check.remaining:
            raise CheckError(f"cash amount {amount} exceeds remaining {check.remaining}")
        cv = check.amount
        if cv.is_xrp:
            src = self.account(check.sender)
            if src.xrp_balance - amount < self.reserve_required(check.sender):
                raise CheckError("sender-unfunded-at-cash")
            src.xrp_balance -= amount
            self.account(check.receiver).xrp_balance += amount
        else:
            if not self._funded(check.sender, cv, amount):
                raise CheckError("sender-unfunded-at-cash")
            self._debit(check.sender, cv, amount)
            self._credit(check.receiver, cv, amount)
        check.cashed += amount
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

    def _drop_check(self, check: Check) -> None:
        del self.checks[check.check_id]
        self.account(check.sender).owned_objects -= 1

    # -- escrows ----------------------------------------------------------------

    def create_escrow(self, sender: str, receiver: str, drops: int,
                      release_time: int, expiration: int | None = None) -> Escrow:
        """Lock XRP for a receiver (possibly the sender itself) until the
        release time; expiry returns the funds."""
        src = self.account(sender)
        self.account(receiver)  # the destination must already exist
        if drops <= 0:
            raise ValueError("escrow amount must be positive")
        if src.xrp_balance - drops < self.reserve_required(sender):
            raise EscrowError("sender cannot lock below its reserve")
        src.xrp_balance -= drops
        src.owned_objects += 1
        escrow = Escrow(self.next_seq(), sender, receiver, drops,
                        release_time, expiration)
        self.escrows[escrow.escrow_id] = escrow
        return escrow

    def finish_escrow(self, escrow_id: int, now: int) -> int:
        escrow = self.escrows.get(escrow_id)
        if escrow is None:
            raise EscrowError(f"no escrow {escrow_id}")
        if now < escrow.release_time:
            raise EscrowError("not-yet-releasable")
        if escrow.expiration is not None and now > escrow.expiration:
            raise EscrowError("expired")
        self.account(escrow.receiver).xrp_balance += escrow.drops
        self.account(escrow.sender).owned_objects -= 1
        del self.escrows[escrow_id]
        return escrow.drops

    def cancel_escrow(self, escrow_id: int, now: int) -> int:
        escrow = self.escrows.get(escrow_id)
        if escrow is None:
            raise EscrowError(f"no escrow {escrow_id}")
        if escrow.expiration is None or now <= escrow.expiration:
            raise EscrowError("escrow has not expired")
        self.account(escrow.sender).xrp_balance += escrow.drops
        self.account(escrow.sender).owned_objects -= 1
        del self.escrows[escrow_id]
        return escrow.drops

    # -- graph export -------------------------------------------------------------

    def payment_graph(self):
        """Executed settlements as a hypergraph: one hyperedge per payment
        covering the whole path in traversal order (direct XRP payments
        are two-member edges)."""
        from .core import Hyperedge, Hypergraph
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
        graph = EdgeList(multi=True)
        for key in sorted(self.states):
            s = self.states[key]
            if s.low_limit > 0:
                graph.add(Edge.make(s.low, s.high, s.low_limit,
                                    currency=s.currency,
                                    used=max(0, s.balance)))
            if s.high_limit > 0:
                graph.add(Edge.make(s.high, s.low, s.high_limit,
                                    currency=s.currency,
                                    used=max(0, -s.balance)))
        return graph


def load_trust_csv(lines: Iterable[str], ledger: RippleLedger | None = None,
                   default_xrp: int = 100_000_000) -> RippleLedger:
    """Ingest `low,high,currency,balance,low_limit,high_limit` rows.
    Accounts are auto-created; flags default to False for ingested graphs.
    A row must have six cells, canonical order, limits >= 0 and a
    (low, high, currency) line of its own (BadRecordError), and its
    balance and limits must be base-10 integers (BadAmountError); each
    message names the 1-based line."""
    led = ledger or RippleLedger()
    rows = [(n, ln.strip()) for n, ln in enumerate(lines, 1) if ln.strip()]
    if rows and rows[0][1].lower().startswith("low,"):
        rows = rows[1:]
    for line_no, row in rows:
        with at_line(line_no):
            state = _trust_row(row)
            if state.key in led.states:
                raise BadRecordError(
                    f"duplicate trust line {','.join(state.key)}")
        low, high = state.low, state.high
        for addr in (low, high):
            if addr not in led.accounts:
                led.create_account(addr, xrp_drops=default_xrp)
        key = state.key
        led.states[key] = state
        owners = set()
        if state.low_limit > 0:
            owners.add(low)
            led.account(low).owned_objects += 1
        if state.high_limit > 0:
            owners.add(high)
            led.account(high).owned_objects += 1
        led.state_owners[key] = owners
    return led


def _trust_row(row: str) -> RippleState:
    cells = [c.strip() for c in row.split(",")]
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
    rows += [f"{s.low},{s.high},{s.currency},{s.balance},{s.low_limit},"
             f"{s.high_limit}" for _key, s in sorted(ledger.states.items())]
    return ("\n".join(rows) + "\n").encode("utf-8")
