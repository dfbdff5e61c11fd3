"""Tangle growth and consensus: toy proof-of-work attachment, tip
selection, coordinator milestones with double-spend invalidation,
promotion and snapshots.

Consensus model: balances change only when a milestone confirms a
bundle. Approving a transaction approves its whole history, so a bundle
confirms only after every trunk and branch outside it is genesis or
confirmed; the confirmed set is therefore closed over ancestors. A
bundle whose inputs exceed the confirmed balances at sweep time (or that
builds on an invalidated subgraph) becomes invalid along with all of its
direct and indirect approvers, and its transactions are never selectable
as tips again. A valid transaction left with no valid approver is a tip
again. Confirmation is monotone: once confirmed, a transaction never
becomes unconfirmed or invalid.

Each attachment of a bundle is tracked on its own, by its head hash:
the bundle hash covers only the essence, so the same bundle or message
attached twice shares one bundle hash but not its members.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from typing import Iterable

from ..core import BadRecordError, EdgeList, LedgerError, csv_row, encode_rows
from .bundles import (Bundle, TangleTransaction, UnbalancedBundleError,
                      message_transaction)
from .sponge import BLOCK_TRITS, sponge_hash
from .trinary import ascii_to_trits, encode_trytes

__all__ = [
    "GENESIS_HASH",
    "TangleState",
    "NoValidTipsError",
    "NotCoordinatorError",
    "PowBudgetExceededError",
    "UnknownTipError",
    "InvalidTipError",
    "AlreadyAttachedError",
    "UnknownTransactionError",
    "InvalidTransactionError",
    "DEFAULT_POW_BUDGET",
]

GENESIS_HASH = "9" * 81
DEFAULT_POW_BUDGET = 10_000


class NoValidTipsError(LedgerError):
    code = "no-valid-tips"


class NotCoordinatorError(LedgerError):
    code = "not-coordinator"


class PowBudgetExceededError(LedgerError):
    code = "pow-budget-exceeded"


class UnknownTipError(LedgerError):
    code = "unknown-tip"


class InvalidTipError(LedgerError):
    code = "invalid-tip"


class AlreadyAttachedError(LedgerError):
    code = "already-attached"


class UnknownTransactionError(LedgerError):
    code = "unknown-transaction"


class InvalidTransactionError(LedgerError):
    code = "invalid-transaction"


class TangleState:
    """Single-writer DAG ledger state anchored at a genesis snapshot."""

    coordinator = "COORDINATOR"  # the one address that may issue milestones

    def __init__(self, genesis_balances: dict[str, int] | None = None):
        self.balances: dict[str, int] = dict(genesis_balances or {})
        self.transactions: dict[str, TangleTransaction] = {}
        # members per attachment, keyed by head hash, and each member's head
        self.bundles: dict[str, list[str]] = {}
        self._head: dict[str, str] = {}
        self.approvers: dict[str, list[str]] = {}
        self.tips: dict[str, None] = {GENESIS_HASH: None}
        self.confirmed: set[str] = set()
        self.invalid: set[str] = set()
        self._attach_seq: dict[str, int] = {GENESIS_HASH: 0}

    # -- attachment ---------------------------------------------------------

    def _known(self, ref: str) -> bool:
        return ref == GENESIS_HASH or ref in self.transactions

    def _pow_hash(self, tx: TangleTransaction, difficulty: int) -> tuple[str, int]:
        base = f"{tx.essence()}|{tx.trunk}|{tx.branch}|"
        for nonce in range(DEFAULT_POW_BUDGET):
            trits = sponge_hash(ascii_to_trits(base + str(nonce)))
            if difficulty == 0 or not trits[-difficulty:].any():
                return encode_trytes(trits), nonce
        raise PowBudgetExceededError(
            f"no nonce within {DEFAULT_POW_BUDGET} tries for difficulty {difficulty}")

    def attach(self, bundle: Bundle, tips: tuple[str, str], difficulty: int = 0) -> str:
        """Mine and add a bundle referencing two prior transactions.
        Returns the head transaction hash (the new tip). The difficulty
        counts the zero trits a hash must end in, 0-243 (else
        BadRecordError)."""
        if not 0 <= difficulty <= BLOCK_TRITS:
            raise BadRecordError(
                f"proof-of-work difficulty {difficulty} is not in 0-{BLOCK_TRITS}")
        trunk_tip, branch_tip = tips
        for ref in (trunk_tip, branch_tip):
            if not self._known(ref):
                raise UnknownTipError(f"unknown tip {ref[:12]}...")
            if ref in self.invalid:
                raise InvalidTipError(f"tip {ref[:12]}... is invalid")
        if bundle.value_sum() != 0:
            raise UnbalancedBundleError("bundle values must sum to zero")
        txs = bundle.transactions
        # bundle members chain by trunk; the last member carries the tips
        hashes: list[str] = [""] * len(txs)
        for i in range(len(txs) - 1, -1, -1):
            tx = txs[i]
            tx.trunk = trunk_tip if i == len(txs) - 1 else hashes[i + 1]
            tx.branch = branch_tip
            tx.hash, tx.nonce = self._pow_hash(tx, difficulty)
            hashes[i] = tx.hash
        for h in hashes:
            if h in self.transactions or h == GENESIS_HASH:
                raise AlreadyAttachedError(
                    f"transaction {h[:12]}... already attached "
                    "(identical bundle, tips and timestamp)")

        for tx in reversed(txs):  # mining order, so trunk refs are older
            self.transactions[tx.hash] = tx
            self._attach_seq[tx.hash] = len(self._attach_seq)
            self.approvers.setdefault(tx.trunk, []).append(tx.hash)
            self.approvers.setdefault(tx.branch, []).append(tx.hash)
        head = txs[0].hash
        self.bundles[head] = hashes
        for h in hashes:
            self._head[h] = head
        for ref in (trunk_tip, branch_tip):
            self.tips.pop(ref, None)
        self.tips[head] = None
        return head

    def attach_message(self, address: str, tips: tuple[str, str], tag: str = "",
                       timestamp: int = 0, data: str = "",
                       difficulty: int = 0) -> str:
        bundle = message_transaction(address, tag, timestamp, data)
        return self.attach(bundle, tips, difficulty)

    # -- tip selection --------------------------------------------------------

    def valid_tips(self) -> list[str]:
        """Valid transactions with no valid approver. A transaction whose
        approvers have all been invalidated is a tip again."""
        return [t for t in self.tips if t not in self.invalid]

    def select_tips(self, strategy: str = "uniform-random",
                    rng_seed: int = 0) -> tuple[str, str]:
        """Pick (trunk, branch) from the current valid tip set; equal only
        when a single tip exists. Deterministic under rng_seed."""
        if strategy not in ("uniform-random", "oldest-first"):
            raise BadRecordError(f"unknown tip selection strategy {strategy!r}")
        tips = self.valid_tips()
        if not tips:
            raise NoValidTipsError("no valid tips to approve")
        if len(tips) == 1:
            return tips[0], tips[0]
        if strategy == "uniform-random":
            rng = random.Random(rng_seed)
            pick = rng.sample(sorted(tips), 2)
            return pick[0], pick[1]
        ordered = sorted(tips, key=lambda t: self._attach_seq[t])
        return ordered[0], ordered[1]

    # -- milestones -----------------------------------------------------------

    def issue_milestone(self, tips: tuple[str, str] | None = None,
                        timestamp: int = 0) -> str:
        if tips is None:
            tips = self.select_tips("oldest-first")
        head = self.attach_message(self.coordinator, tips, tag="MILESTONE",
                                   timestamp=timestamp)
        self.apply_milestone(head)
        return head

    def ancestry(self, tx_hash: str) -> list[str]:
        """Breadth-first trunk/branch ancestry including the start, nearest
        first; stops at genesis. Confirmed history is walked through and
        skipped by the sweep; since a bundle confirms only after everything
        it approves, no unconfirmed transaction lies behind it."""
        order, seen = [], set()
        queue = deque([tx_hash])
        while queue:
            h = queue.popleft()
            if h in seen or h == GENESIS_HASH or h not in self.transactions:
                continue
            seen.add(h)
            order.append(h)
            tx = self.transactions[h]
            for ref in (tx.trunk, tx.branch):
                if ref not in seen:
                    queue.append(ref)
        return order

    def _bundle_withdrawals(self, members: Iterable[str]) -> dict[str, int]:
        need: dict[str, int] = {}
        for m in members:
            tx = self.transactions[m]
            if tx.value < 0:
                need[tx.address] = need.get(tx.address, 0) - tx.value
        return need

    def _confirm_bundle(self, members: list[str]) -> None:
        for m in members:
            self.confirmed.add(m)
            tx = self.transactions[m]
            if tx.value:
                self.balances[tx.address] = \
                    self.balances.get(tx.address, 0) + tx.value

    def _approves_only_confirmed(self, members: list[str]) -> bool:
        """Every trunk and branch outside the bundle is genesis or confirmed."""
        for m in members:
            tx = self.transactions[m]
            for ref in (tx.trunk, tx.branch):
                if not (ref == GENESIS_HASH or ref in self.confirmed
                        or ref in members):
                    return False
        return True

    def _invalidate_with_approvers(self, start_members: list[str]) -> None:
        """Invalidate the bundles of start_members and all their direct and
        indirect approvers. A valid trunk or branch left without a valid
        approver becomes a tip again.

        Confirmed history is never reached: the start bundle is
        unconfirmed, confirmation is closed over ancestors, so nothing
        that approves it is confirmed, and bundles confirm and fall
        whole. A hash can be queued twice, hence the invalid check."""
        queue = deque(start_members)
        parents: dict[str, None] = {}
        while queue:
            h = queue.popleft()
            if h in self.invalid:
                continue
            # pull in the whole bundle of h
            for m in self.bundles[self._head[h]]:
                self.invalid.add(m)
                self.tips.pop(m, None)
                tx = self.transactions[m]
                parents.update(dict.fromkeys((tx.trunk, tx.branch)))
                queue.extend(self.approvers.get(m, []))
        for ref in parents:
            if ref not in self.invalid and all(
                    a in self.invalid for a in self.approvers.get(ref, [])):
                self.tips[ref] = None

    def apply_milestone(self, milestone_hash: str) -> None:
        """Confirmation sweep from a coordinator transaction.

        Reachable bundles confirm oldest-first, each only once every
        trunk and branch outside it is genesis or confirmed (in this sweep
        or an earlier one) and the confirmed balances can fund it. A bundle
        whose approved history is confirmed but that cannot be funded
        conflicts with an already confirmed spend and is invalidated
        together with all its approvers, the milestone among them. A
        bundle that approves a still waiting (partially swept) bundle
        waits too. Afterwards, unconfirmed spends that the newly applied
        spends starved are invalidated the same way.
        """
        tx = self.transactions.get(milestone_hash)
        if tx is None:
            raise UnknownTransactionError(
                f"unknown transaction {milestone_hash[:12]}...")
        if tx.address != self.coordinator:
            raise NotCoordinatorError(
                f"milestones must come from {self.coordinator}")

        order = self.ancestry(milestone_hash)
        reached = set(order)
        bundle_order: list[str] = []
        seen_bundles: set[str] = set()
        for h in order:
            b = self._head[h]
            if b not in seen_bundles:
                seen_bundles.add(b)
                bundle_order.append(b)
        # deepest ancestors first, so deposits confirm before their spends
        bundle_order.reverse()

        decreased: set[str] = set()
        pending = []
        for b in bundle_order:
            members = self.bundles[b]
            if any(m in self.invalid for m in members):
                continue
            if all(m in self.confirmed for m in members):
                continue
            if not all(m in reached or m in self.confirmed for m in members):
                continue  # partially swept bundle waits for a later milestone
            pending.append(b)
        progress = True
        while progress:
            progress = False
            for b in list(pending):
                members = self.bundles[b]
                if not self._approves_only_confirmed(members):
                    continue
                need = self._bundle_withdrawals(members)
                if all(self.balances.get(a, 0) >= w for a, w in need.items()):
                    self._confirm_bundle(members)
                    decreased.update(need)
                    pending.remove(b)
                    progress = True
        for b in pending:
            members = self.bundles[b]
            # unfundable: conflicts with confirmed history; the others wait
            # for what they approve, or go with it if it is invalidated
            if self._approves_only_confirmed(members):
                self._invalidate_with_approvers(members)

        # starve-scan: unconfirmed spends from addresses whose balance fell
        if decreased:
            for b, members in list(self.bundles.items()):
                if any(m in self.confirmed or m in self.invalid for m in members):
                    continue
                need = self._bundle_withdrawals(members)
                if not need or not (set(need) & decreased):
                    continue
                if any(self.balances.get(a, 0) < w for a, w in need.items()):
                    self._invalidate_with_approvers(members)

    # -- promotion and snapshots ------------------------------------------------

    def promote(self, stuck_hash: str, timestamp: int = 0) -> str:
        """Attach a zero-value transaction approving a stuck transaction so
        future tips pull it toward confirmation."""
        tx = self.transactions.get(stuck_hash)
        if tx is None:
            raise UnknownTransactionError(
                f"unknown transaction {stuck_hash[:12]}...")
        if stuck_hash in self.invalid:
            raise InvalidTransactionError("cannot promote an invalid transaction")
        others = [t for t in self.valid_tips() if t != stuck_hash]
        branch = min(others, key=lambda t: self._attach_seq[t]) if others \
            else stuck_hash
        return self.attach_message(tx.address, (stuck_hash, branch),
                                   tag="PROMOTE", timestamp=timestamp)

    def snapshot(self) -> tuple[dict[str, int], "TangleState"]:
        """Discard confirmed history and drop unconfirmed transactions;
        balances carry over exactly into a fresh genesis."""
        balances = dict(self.balances)
        fresh = TangleState(balances)
        return balances, fresh

    # -- integrity and export ----------------------------------------------------

    def verify_dag(self) -> bool:
        """Trunk/branch must reference strictly earlier attachments."""
        for h, tx in self.transactions.items():
            seq = self._attach_seq[h]
            for ref in (tx.trunk, tx.branch):
                if ref not in self._attach_seq:
                    return False
                if self._attach_seq[ref] >= seq:
                    return False
        return True

    def tangle_graph(self) -> EdgeList:
        """Approval edges as a simple directed graph: each transaction
        points at its trunk and branch tips (one edge per distinct ref)."""
        graph = EdgeList()
        for h in sorted(self.transactions):
            tx = self.transactions[h]
            graph.add(h, tx.trunk, tip="trunk")
            if tx.branch != tx.trunk:  # both tips equal: single approval edge
                graph.add(h, tx.branch, tip="branch")
        return graph

    def transaction_graph(self) -> EdgeList:
        """Confirmed value movement as a weighted directed simple graph:
        per bundle, every (input address, output address) pair gets the
        output amount scaled by the input's share of the withdrawal,
        exact rationals collapsed per address pair."""
        totals: dict[tuple[str, str], Fraction] = {}
        for bundle_hash in sorted(self.bundles):
            members = self.bundles[bundle_hash]
            if not all(m in self.confirmed for m in members):
                continue
            ins = [(self.transactions[m].address, -self.transactions[m].value)
                   for m in members if self.transactions[m].value < 0]
            outs = [(self.transactions[m].address, self.transactions[m].value)
                    for m in members if self.transactions[m].value > 0]
            in_total = sum(v for _a, v in ins)
            if not in_total:
                continue
            for src, src_amount in ins:
                share = Fraction(src_amount, in_total)
                for dst, dst_amount in outs:
                    key = (src, dst)
                    totals[key] = totals.get(key, Fraction(0)) + share * dst_amount
        graph = EdgeList()
        for src, dst in sorted(totals):
            graph.add(src, dst, totals[(src, dst)])
        return graph

    def export_rows(self) -> list[str]:
        """Table-style CSV rows, cells quoted as csv_row quotes them:
        tx_hash,epoch,value,bundle,tag,address,branch,trunk."""
        rows = ["tx_hash,epoch,value,bundle,tag,address,branch,trunk"]
        for h in sorted(self.transactions):
            tx = self.transactions[h]
            rows.append(csv_row([
                tx.hash, str(tx.timestamp), str(tx.value), tx.bundle,
                tx.tag, tx.address, tx.branch, tx.trunk,
            ]))
        return rows

    def export_csv(self) -> bytes:
        """export_rows as a UTF-8 CSV file, each row ended by a newline."""
        return encode_rows(self.export_rows())
