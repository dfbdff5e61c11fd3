"""Account-model ledger: nonce-ordered transaction multigraph, built-in
fungible token contracts producing internal transfers, and trace
hypergraphs over scripted call cascades.

Token transfers are internal state changes, never top-level transactions;
the executor is strictly single-threaded and calls run sequentially.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import (BadRecordError, EdgeList, Hyperedge, Hypergraph,
                   LedgerError, at_line, get_field, jsonl_records)

__all__ = [
    "AccountTx",
    "TokenContract",
    "InternalTransfer",
    "TraceStep",
    "Trace",
    "NonceGap",
    "NonceError",
    "InsufficientTokenBalanceError",
    "validate_nonce_order",
    "load_jsonl",
    "dump_jsonl",
    "build_account_graph",
    "deploy_token",
    "TokenLedger",
    "build_token_graph",
    "shared_traders",
    "build_trace_hypergraph",
    "trace_value_edges",
    "TraceExecutor",
    "replay_token_script",
    "run_trace_script",
    "NULL_ADDRESS",
    "DEFAULT_CALL_BUDGET",
]

NULL_ADDRESS = "NULL"
DEFAULT_CALL_BUDGET = 1024  # flat per-step gas accounting


class NonceError(LedgerError):
    code = "nonce-error"


class InsufficientTokenBalanceError(LedgerError):
    code = "insufficient-token-balance"


@dataclass(frozen=True)
class AccountTx:
    """One mined transaction; the sender is always an externally owned
    address (contracts and NULL cannot initiate)."""

    sender: str
    to: str
    amount_wei: int
    nonce: int
    block_height: int
    block_index: int
    timestamp: int = 0
    input_data: bytes = b""

    def __post_init__(self) -> None:
        if self.nonce < 0:
            raise BadRecordError("nonce must be non-negative")
        if self.sender == NULL_ADDRESS:
            raise BadRecordError("the NULL address cannot initiate a transaction")


def load_jsonl(lines: Iterable[str]) -> list[AccountTx]:
    """Transactions from JSONL, one per line, in any key order:
    ``{"from", "to", "amount", "nonce", "block", "index", "timestamp"?}``.
    Integer fields must be JSON integers; a malformed line raises
    BadJsonError, BadRecordError or BadAmountError naming it."""
    txs = []
    for line_no, rec in jsonl_records(lines):
        with at_line(line_no):
            txs.append(AccountTx(
                sender=get_field(rec, "from"), to=get_field(rec, "to"),
                amount_wei=get_field(rec, "amount", int),
                nonce=get_field(rec, "nonce", int),
                block_height=get_field(rec, "block", int),
                block_index=get_field(rec, "index", int),
                timestamp=get_field(rec, "timestamp", int, 0)))
    return txs


def dump_jsonl(txs: Iterable[AccountTx]) -> Iterator[str]:
    """Inverse of load_jsonl, one line per transaction in the given order."""
    for t in txs:
        yield json.dumps({
            "from": t.sender, "to": t.to, "amount": t.amount_wei,
            "nonce": t.nonce, "block": t.block_height, "index": t.block_index,
            "timestamp": t.timestamp}, sort_keys=True)


@dataclass(frozen=True)
class NonceGap:
    sender: str
    kind: str  # gap | duplicate
    nonce: int
    detail: str


def validate_nonce_order(txs: Iterable[AccountTx]) -> list[NonceGap]:
    """Check that every sender's mined nonces form 0,1,2,... in mining
    order (blocks, then block index; same-block multiples must ascend).
    Returns an empty list when the set is valid."""
    by_sender: dict[str, list[AccountTx]] = {}
    for tx in txs:
        by_sender.setdefault(tx.sender, []).append(tx)
    problems: list[NonceGap] = []
    for sender in sorted(by_sender):
        rows = sorted(by_sender[sender], key=lambda t: (t.block_height, t.block_index))
        seen: set[int] = set()
        expected = 0
        for tx in rows:
            if tx.nonce in seen:
                problems.append(NonceGap(sender, "duplicate", tx.nonce,
                                         f"nonce {tx.nonce} mined twice"))
                continue
            seen.add(tx.nonce)
            if tx.nonce > expected:
                problems.append(NonceGap(
                    sender, "gap", expected,
                    f"nonce {tx.nonce} mined while {expected} absent"))
                expected = tx.nonce + 1
            elif tx.nonce < expected:
                problems.append(NonceGap(
                    sender, "out-of-order", tx.nonce,
                    f"nonce {tx.nonce} mined after nonce {expected - 1}"))
            else:
                expected += 1
    return problems


def build_account_graph(txs: Sequence[AccountTx]) -> EdgeList:
    """Directed weighted multigraph: one edge per transaction with the
    full feature set of the edge table. Nonce gaps or disorder raise
    NonceError."""
    problems = validate_nonce_order(txs)
    if problems:
        raise NonceError("; ".join(p.detail for p in problems))
    graph = EdgeList()
    for tx in txs:
        graph.add(tx.sender, tx.to, tx.amount_wei, nonce=tx.nonce,
                  block=tx.block_height, index=tx.block_index,
                  timestamp=tx.timestamp)
    return graph


# --------------------------------------------------------------------------
# Tokens

@dataclass
class TokenContract:
    """Fungible token state. The transfer function is built in; contract
    languages and bytecode are out of scope."""

    address: str
    owner: str
    symbol: str
    decimals: int
    total_supply: int
    balances: dict[str, int] = field(default_factory=dict)

    def balance_of(self, holder: str) -> int:
        return self.balances.get(holder, 0)

    def check_conservation(self) -> bool:
        return sum(self.balances.values()) == self.total_supply


@dataclass(frozen=True)
class InternalTransfer:
    """A token balance update; recorded in the token network but never
    broadcast as an ordinary transaction."""

    token: str
    sender: str
    recipient: str
    token_amount: int
    triggering_tx: str


def deploy_token(owner: str, symbol: str, decimals: int, supply: int,
                 nonce: int) -> TokenContract:
    """Create a token contract at the address deterministically derived
    from (owner, nonce): "0x" and the first 40 hex digits of
    sha256("owner:nonce"). Replaying the same pair yields the same address;
    symbols are not assumed unique."""
    raw = hashlib.sha256(f"{owner}:{nonce}".encode("utf-8")).hexdigest()
    address = "0x" + raw[:40]
    return TokenContract(address=address, owner=owner, symbol=symbol,
                         decimals=decimals, total_supply=supply,
                         balances={owner: supply})


class TokenLedger:
    """Holds deployed contracts and the internal-transfer log."""

    def __init__(self) -> None:
        self.contracts: dict[str, TokenContract] = {}
        self.transfers: list[InternalTransfer] = []

    def register(self, contract: TokenContract) -> TokenContract:
        if contract.address in self.contracts:
            existing = self.contracts[contract.address]
            if (existing.owner, existing.symbol) != (contract.owner, contract.symbol):
                raise LedgerError(f"address collision at {contract.address}")
            return existing  # idempotent redeploy of the same (owner, nonce)
        self.contracts[contract.address] = contract
        return contract

    def execute_token_transfer(self, contract_address: str, caller: str,
                               recipient: str, token_amount: int,
                               triggering_tx: str) -> InternalTransfer:
        """The transfer-function call: moves token balance atomically.
        Fails without touching state when the caller lacks the tokens."""
        contract = self.contracts.get(contract_address)
        if contract is None:
            raise LedgerError(f"no token contract at {contract_address}")
        if token_amount < 0:
            raise BadRecordError("token amount must be non-negative")
        if contract.balance_of(caller) < token_amount:
            raise InsufficientTokenBalanceError(
                f"{caller} holds {contract.balance_of(caller)} < {token_amount}"
            )
        contract.balances[caller] = contract.balance_of(caller) - token_amount
        contract.balances[recipient] = contract.balance_of(recipient) + token_amount
        xfer = InternalTransfer(contract_address, caller, recipient,
                                token_amount, triggering_tx)
        self.transfers.append(xfer)
        return xfer


def build_token_graph(transfers: Iterable[InternalTransfer],
                      token: str | None = None) -> dict[str, EdgeList]:
    """Per-token directed weighted multigraphs; nodes are the trader
    addresses and every internal transfer is one edge."""
    graphs: dict[str, EdgeList] = {}
    for t in transfers:
        if token is not None and t.token != token:
            continue
        graphs.setdefault(t.token, EdgeList()).add(
            t.sender, t.recipient, t.token_amount, token=t.token,
            tx=t.triggering_tx)
    if token is not None:
        graphs.setdefault(token, EdgeList())
    return graphs


def shared_traders(graphs: dict[str, EdgeList]) -> dict[str, list[str]]:
    """Addresses active in more than one token network (overlap report)."""
    membership: dict[str, set[str]] = {}
    for token, graph in graphs.items():
        for node in graph.nodes():
            membership.setdefault(node, set()).add(token)
    return {addr: sorted(tokens) for addr, tokens in sorted(membership.items())
            if len(tokens) > 1}


# --------------------------------------------------------------------------
# Traces

_CALL_KINDS = {"call", "delegatecall", "create", "selfdestruct",
               "value-transfer", "error"}


@dataclass(frozen=True)
class TraceStep:
    caller: str
    callee: str
    kind: str = "call"
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _CALL_KINDS:
            raise BadRecordError(f"unknown call kind {self.kind!r}")


@dataclass(frozen=True)
class Trace:
    """The ordered call cascade of one transaction. Steps execute
    sequentially; the virtual machine never makes two calls at once."""

    root_tx: str
    steps: tuple[TraceStep, ...]
    truncated: bool = False


def build_trace_hypergraph(traces: Iterable[Trace]) -> Hypergraph:
    """One hyperedge per root transaction covering every touched address
    in call order. Pure state changes (token balance updates) are not
    steps, so they never appear here."""
    hg = Hypergraph()
    for trace in traces:
        members: dict[str, None] = {}
        attrs = []
        for i, step in enumerate(trace.steps):
            if step.kind == "error":
                attrs.append((f"step{i}", "error:budget-exhausted"))
                continue
            members.setdefault(step.caller)
            members.setdefault(step.callee)
            attrs.append((f"step{i}", f"{step.kind}:{step.caller}->{step.callee}"))
        if len(members) < 2:
            continue  # a self-call-only trace cannot form a hyperedge
        hg.edges.append(Hyperedge(tuple(members), trace.root_tx, tuple(attrs)))
    return hg


def trace_value_edges(traces: Iterable[Trace]) -> EdgeList:
    """Coin-moving steps as graph edges; this is how a contract-to-EOA
    payout becomes visible, since it never exists as a top-level tx."""
    graph = EdgeList()
    for trace in traces:
        for step in trace.steps:
            if step.kind != "error" and step.value != 0:
                graph.add(step.caller, step.callee, step.value, kind=step.kind,
                          tx=trace.root_tx)
    return graph


class TraceExecutor:
    """Runs scripted call behaviors to produce traces.

    A behavior maps a contract address to the list of (callee, kind, value)
    calls it makes whenever invoked. Execution is depth-first and
    sequential with a flat per-step budget; exhausting it truncates the
    trace with an error step.
    """

    def __init__(self, behaviors: dict[str, list[tuple[str, str, int]]] | None = None,
                 call_budget: int = DEFAULT_CALL_BUDGET):
        self.behaviors = behaviors or {}
        self.call_budget = call_budget

    def run(self, root_tx: str, sender: str, to: str, value: int = 0) -> Trace:
        steps: list[TraceStep] = []
        # pending calls, the next one on top; an explicit stack, so a
        # contract that calls itself cannot hit the recursion limit
        stack = [(sender, to, "call", value)]
        while stack:
            caller, callee, call_kind, amount = stack.pop()
            if len(steps) >= self.call_budget:
                steps.append(TraceStep(caller, callee, "error", 0))
                return Trace(root_tx, tuple(steps), truncated=True)
            steps.append(TraceStep(caller, callee, call_kind, amount))
            calls = self.behaviors.get(callee, [])
            stack.extend((callee, *call) for call in reversed(calls))
        return Trace(root_tx, tuple(steps), truncated=False)


# --------------------------------------------------------------------------
# Scripts

def replay_token_script(lines: Iterable[str]) -> TokenLedger:
    """Apply a token script: ``{"op": "deploy", "owner", "symbol",
    "decimals"?, "supply", "nonce"}`` and ``{"op": "transfer", "token",
    "from", "to", "amount", "tx"?}`` lines; other ops are skipped."""
    ledger = TokenLedger()
    for line_no, r in jsonl_records(lines):
        with at_line(line_no):
            op = get_field(r, "op")
            if op == "deploy":
                ledger.register(deploy_token(
                    get_field(r, "owner"), get_field(r, "symbol"),
                    get_field(r, "decimals", int, 18),
                    get_field(r, "supply", int), get_field(r, "nonce", int)))
            elif op == "transfer":
                ledger.execute_token_transfer(
                    get_field(r, "token"), get_field(r, "from"),
                    get_field(r, "to"), get_field(r, "amount", int),
                    get_field(r, "tx", str, ""))
    return ledger


def run_trace_script(lines: Iterable[str],
                     call_budget: int = DEFAULT_CALL_BUDGET) -> list[Trace]:
    """Run a trace script and return one trace per transaction, in order.
    ``{"op": "behavior", "address", "calls": [{"to", "kind"?, "value"?}]}``
    sets what a contract calls whenever invoked, from then on;
    ``{"op": "tx", "id", "from", "to", "value"?}`` runs a transaction."""
    executor = TraceExecutor(call_budget=call_budget)
    traces = []
    for line_no, r in jsonl_records(lines):
        with at_line(line_no):
            op = get_field(r, "op")
            if op == "behavior":
                executor.behaviors[get_field(r, "address")] = [
                    (get_field(c, "to"), get_field(c, "kind", str, "call"),
                     get_field(c, "value", int, 0))
                    for c in get_field(r, "calls", list)]
            elif op == "tx":
                traces.append(executor.run(
                    get_field(r, "id"), get_field(r, "from"), get_field(r, "to"),
                    get_field(r, "value", int, 0)))
    return traces
