"""Chainlet extraction and the occurrence/amount matrix machinery,
including boundary folding, extreme chainlet reports and aggregate
class-share time series.

A chainlet C(x, y) is the one-transaction substructure with x inputs and
y outputs; counts and transferred output totals per (x, y) are folded
into N x N matrices whose last row/column accumulate everything at or
beyond the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import BadRecordError, LedgerError
from .utxo import Ledger, UtxoTransaction
from .utxo_graphs import HiddenAmountError, build_transaction_graph, txs_in_range

__all__ = [
    "FirstOrderChainlet",
    "KChainlet",
    "ChainletMatrices",
    "UnsupportedKError",
    "classify_first_order",
    "extract_k_chainlets",
    "occurrence_matrix",
    "amount_matrix",
    "build_matrices",
    "fold_matrix",
    "extreme_chainlet_report",
    "aggregate_timeseries",
    "snapshot_from_ledger",
    "DEFAULT_N",
]

DEFAULT_N = 20  # distinguishes 400 chainlet shapes and keeps the matrix dense
MAX_N = 1_000  # two N x N int64 matrices of at most 8 MB each


class UnsupportedKError(LedgerError):
    code = "unsupported-k"


@dataclass(frozen=True)
class FirstOrderChainlet:
    txid: str
    x: int  # input count
    y: int  # output count
    cls: str  # merge | transition | split | coinbase
    output_total: int  # subunits
    amounts_visible: bool = True


@dataclass(frozen=True)
class KChainlet:
    tx_nodes: tuple[str, ...]
    address_nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    spend_direction: tuple[str, str] | None = None  # (producer, consumer) for k=2


@dataclass
class ChainletMatrices:
    """Paired N x N occurrence and amount matrices (1-based C(x,y) indexing
    maps to row x-1, column y-1). Coinbases (x = 0) have no row."""

    occurrence: np.ndarray
    amount: np.ndarray


def classify_first_order(tx: UtxoTransaction) -> FirstOrderChainlet:
    """Classify one transaction by its input/output counts."""
    x, y = len(tx.inputs), len(tx.outputs)
    if tx.coinbase:
        cls = "coinbase"
    elif x > y:
        cls = "merge"
    elif x == y:
        cls = "transition"
    else:
        cls = "split"
    return FirstOrderChainlet(
        txid=tx.id, x=x, y=y, cls=cls, output_total=tx.output_total(),
        amounts_visible=all(o.amount_visible for o in tx.outputs),
    )


def snapshot_from_ledger(ledger: Ledger, start: int | None = None,
                         end: int | None = None) -> list[FirstOrderChainlet]:
    """First-order chainlets of a block-range snapshot, block order."""
    return [classify_first_order(tx) for tx in txs_in_range(ledger, start, end)]


def _k_chainlet(ledger: Ledger, tx_nodes: tuple[str, ...],
                members: Iterable[UtxoTransaction],
                spend_direction: tuple[str, str] | None = None) -> KChainlet:
    """The chainlet over its member transactions: each address once, in
    first-seen order, and one edge per input and per output."""
    addrs: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    for tx in members:
        for r in tx.inputs:
            addr = ledger.output(r).address
            addrs.setdefault(addr)
            edges.append((addr, tx.id))
        for o in tx.outputs:
            addrs.setdefault(o.address)
            edges.append((tx.id, o.address))
    return KChainlet(tx_nodes, tuple(addrs), tuple(edges), spend_direction)


def extract_k_chainlets(ledger: Ledger, k: int, start: int | None = None,
                        end: int | None = None) -> list[KChainlet]:
    """k=1: one chainlet per transaction (they partition the tx set).
    k=2: unordered connected transaction pairs where one spends the
    other's output inside the window, read off the transaction graph's
    edges (acyclic, so one per pair); spend direction kept as attribute.
    """
    if k not in (1, 2):
        raise UnsupportedKError(f"k={k} not supported (only 1 and 2)")
    if k == 1:
        return [_k_chainlet(ledger, (tx.id,), (tx,))
                for tx in txs_in_range(ledger, start, end)]
    graph = build_transaction_graph(ledger, start, end)
    txs = ledger.transactions
    return [_k_chainlet(ledger, key, (txs[src], txs[dst]), spend_direction=(src, dst))
            for key, (src, dst) in sorted(
                (tuple(sorted(pair)), pair)
                for pair in zip(graph.sources, graph.targets))]


def _fold_index(v: int, n: int) -> int:
    """Map a 1-based dimension onto 0-based matrix index with boundary fold."""
    return min(v, n) - 1


def _accumulate(snapshot: Iterable[FirstOrderChainlet], n: int,
                want_amount: bool) -> np.ndarray:
    if not 1 <= n <= MAX_N:
        raise BadRecordError(f"N must lie in 1-{MAX_N}, got {n}")
    core = np.zeros((n, n), dtype=np.int64)
    for c in snapshot:
        if want_amount and not c.amounts_visible:
            raise HiddenAmountError(
                f"tx {c.txid} has hidden output amounts; amount matrix undefined"
            )
        value = c.output_total if want_amount else 1
        if c.x == 0:
            continue  # coinbases have no input row
        core[_fold_index(c.x, n), _fold_index(c.y, n)] += value
    return core


def occurrence_matrix(snapshot: Sequence[FirstOrderChainlet], n: int) -> np.ndarray:
    """Chainlet counts as an N x N matrix; dimensions >= N fold into the
    N-th row/column."""
    return _accumulate(snapshot, n, want_amount=False)


def amount_matrix(snapshot: Sequence[FirstOrderChainlet], n: int) -> np.ndarray:
    """Transferred coin totals per chainlet shape, in subunits. vol() is
    the sum of output amounts of the matching transactions. A
    hidden-amount transaction raises HiddenAmountError."""
    return _accumulate(snapshot, n, want_amount=True)


def build_matrices(snapshot: Sequence[FirstOrderChainlet],
                   n: int = DEFAULT_N) -> ChainletMatrices:
    return ChainletMatrices(occurrence_matrix(snapshot, n),
                            amount_matrix(snapshot, n))


def _fold_axis(a: np.ndarray, n_prime: int, axis: int) -> np.ndarray:
    """Fold one axis of length N down to N' (1 <= N' <= N): entries at or
    beyond the new boundary sum into the last position."""
    n = a.shape[axis]
    if not 1 <= n_prime <= n:
        raise ValueError(f"cannot fold {n} to {n_prime}")
    head, tail = np.split(a, [n_prime - 1], axis=axis)
    return np.concatenate(
        [head, tail.sum(axis=axis, keepdims=True, dtype=a.dtype)], axis=axis)


def fold_matrix(matrix: np.ndarray, n_prime: int) -> np.ndarray:
    """Fold an N x N chainlet matrix down to N' x N' (N' <= N): entries at
    or beyond the new boundary sum into the last row/column."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("chainlet matrices are square")
    return _fold_axis(_fold_axis(matrix, n_prime, 0), n_prime, 1)


def extreme_chainlet_report(snapshot: Sequence[FirstOrderChainlet],
                            n: int) -> list[dict]:
    """Transactions whose dimensions reach the fold boundary. Sell pattern:
    few inputs fan out to >= N outputs; buy pattern: >= N inputs collapse
    into few outputs."""
    if n < 1:
        raise ValueError("N must be >= 1")
    report = []
    for c in snapshot:
        if c.x < n and c.y < n:
            continue
        if c.x < n <= c.y:
            pattern = "sell-pattern"
        elif c.y < n <= c.x:
            pattern = "buy-pattern"
        else:
            pattern = "extreme-both"
        report.append({
            "txid": c.txid, "x": c.x, "y": c.y,
            "output_total": c.output_total, "pattern": pattern,
            "amounts_visible": c.amounts_visible,
        })
    return report


def aggregate_timeseries(
    windows: Sequence[Sequence[FirstOrderChainlet]],
) -> list[tuple[float, float, float]]:
    """Per-window (merge%, transition%, split%) of non-coinbase txs.
    The three shares sum to 100 whenever the window is non-empty."""
    series = []
    for snapshot in windows:
        counts = {"merge": 0, "transition": 0, "split": 0}
        for c in snapshot:
            if c.cls in counts:
                counts[c.cls] += 1
        total = sum(counts.values())
        if total == 0:
            series.append((0.0, 0.0, 0.0))
        else:
            series.append((
                100.0 * counts["merge"] / total,
                100.0 * counts["transition"] / total,
                100.0 * counts["split"] / total,
            ))
    return series
