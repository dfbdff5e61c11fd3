"""Graph builders over a finalized UTXO ledger: the transaction graph,
the ratio-weighted address graph, the address-transaction bipartite
network, and a deterministic summary used to verify structural claims
(sparsity, triangle-freeness) on synthetic data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from .core import EdgeList, LedgerError
from .utxo import Ledger, UtxoTransaction

__all__ = [
    "TransactionGraph",
    "AddressGraph",
    "HiddenAmountError",
    "EmptyRangeError",
    "build_transaction_graph",
    "build_address_graph",
    "build_bipartite_graph",
    "graph_stats",
    "txs_in_range",
]


class HiddenAmountError(LedgerError):
    code = "hidden-amount"


class EmptyRangeError(LedgerError):
    code = "empty-range"


@dataclass
class TransactionGraph:
    """Directed acyclic graph on transaction ids. An edge producer->consumer
    exists when the consumer spends one of the producer's outputs; parallel
    spends collapse into one edge carrying a spent-output count."""

    nodes: list[str] = field(default_factory=list)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def to_edge_list(self) -> EdgeList:
        graph = EdgeList()
        counts = list(self.edges.values())
        graph.extend([src for src, _dst in self.edges], [dst for _src, dst in self.edges],
                     counts, [(("spent_outputs", count),) for count in counts])
        return graph


class AddressGraph(EdgeList):
    """Directed multigraph on addresses; one edge per (tx, input, output)
    triple so the |I|x|O| identity stays exactly testable. Weights are
    exact rational subunits, stored as reduced (num, den) int pairs."""

    __slots__ = ()

    def to_edge_list(self) -> EdgeList:
        return self


def txs_in_range(ledger: Ledger, start: int | None = None,
                 end: int | None = None) -> list[UtxoTransaction]:
    """Transactions of blocks with start <= height <= end, block order."""
    lo = ledger.blocks[0].height if (start is None and ledger.blocks) else start
    hi = ledger.tip_height if end is None else end
    out = []
    for block in ledger.blocks:
        if (lo is None or block.height >= lo) and block.height <= hi:
            out.extend(block.transactions)
    return out


def build_transaction_graph(ledger: Ledger, start: int | None = None,
                            end: int | None = None) -> TransactionGraph:
    """Edge t_x -> t_y iff t_y consumes an output of t_x; both endpoints
    must fall in the block range. Unspent outputs contribute nothing."""
    txs = txs_in_range(ledger, start, end)
    if not txs:
        raise EmptyRangeError(f"no transactions in blocks [{start}, {end}]")
    in_window = {tx.id for tx in txs}
    graph = TransactionGraph(nodes=[tx.id for tx in txs])
    counts: Counter[tuple[str, str]] = Counter()
    for tx in txs:
        for (src_txid, _idx) in tx.inputs:
            if src_txid in in_window:
                counts[(src_txid, tx.id)] += 1
    graph.edges = dict(sorted(counts.items()))
    return graph


def build_address_graph(ledger: Ledger, start: int | None = None,
                        end: int | None = None,
                        coinbase_source: str | None = None) -> AddressGraph:
    """Weighted address graph: for every transaction, every (input address,
    output address) pair gets one edge weighted

        w(i->j) = A(a_i) * A(a_j) / sum over outputs of A(a_x)

    as an exact rational, so the per-transaction edge weights sum to the
    transaction's input total. Each weight goes into the columns as its
    reduced (num, den) pair. Coinbase transactions contribute edges only
    when a virtual source node name is supplied.
    """
    txs = txs_in_range(ledger, start, end)
    if not txs:
        raise EmptyRangeError(f"no transactions in blocks [{start}, {end}]")
    sources: list[str] = []
    targets: list[str] = []
    nums: list[int] = []
    dens: list[int] = []
    attrs: list[tuple] = []
    for tx in txs:
        for out in tx.outputs:
            if not out.amount_visible:
                raise HiddenAmountError(
                    f"output {out.ref} has a hidden amount (RingCT); "
                    "address graph needs visible amounts"
                )
        out_total = tx.output_total()
        if tx.coinbase:
            if coinbase_source is None:
                continue
            ins: list[tuple[str, int]] = [(coinbase_source, out_total)]
        else:
            ins = []
            for ref in tx.inputs:
                spent = ledger.output(ref)
                if not spent.amount_visible:
                    raise HiddenAmountError(
                        f"input {ref} has a hidden amount (RingCT)"
                    )
                ins.append((spent.address, spent.amount))
        out_addresses = [out.address for out in tx.outputs]
        out_amounts = [out.amount for out in tx.outputs]
        row_attrs = [(("txid", tx.id),)] * len(out_amounts)
        total = out_total or 1  # outputs summing to 0 give every edge 0/1
        for src_addr, src_amount in ins:
            sources.extend([src_addr] * len(out_amounts))
            targets.extend(out_addresses)
            attrs.extend(row_attrs)
            for amount in out_amounts:
                p = src_amount * amount
                g = gcd(p, total)
                nums.append(p // g)
                dens.append(total // g)
    graph = AddressGraph()
    graph.extend(sources, targets, nums, attrs, dens)
    return graph


def build_bipartite_graph(ledger: Ledger, start: int | None = None,
                          end: int | None = None) -> EdgeList:
    """The raw address-transaction multigraph: one address->tx edge per
    consumed output, one tx->address edge per created output."""
    txs = txs_in_range(ledger, start, end)
    sources: list[str] = []
    targets: list[str] = []
    nums: list[int | None] = []
    attrs: list[tuple] = []
    for tx in txs:
        for ref in tx.inputs:
            spent = ledger.output(ref)
            sources.append(spent.address)
            targets.append(tx.id)
            nums.append(spent.amount if spent.amount_visible else None)
            attrs.append((("output", f"{ref[0]}:{ref[1]}"),))
        for out in tx.outputs:
            sources.append(tx.id)
            targets.append(out.address)
            nums.append(out.amount if out.amount_visible else None)
            attrs.append((("output", f"{out.ref[0]}:{out.ref[1]}"),))
    graph = EdgeList()
    graph.extend(sources, targets, nums, attrs)
    return graph


# --------------------------------------------------------------------------
# Summary statistics

def graph_stats(graph: EdgeList) -> dict:
    """Deterministic summary of a graph's edges: node/edge counts, degree
    distribution, weakly connected components, and undirected triangle
    count. The nodes are the edge endpoints in first-seen order."""
    ids: dict[str, int] = {}
    pairs = []
    for source, target in zip(graph.sources, graph.targets):
        s = ids.setdefault(source, len(ids))
        pairs.append((s, ids.setdefault(target, len(ids))))
    n = len(ids)

    out_deg = [0] * n
    in_deg = [0] * n
    parent = list(range(n))
    higher: list[set[int]] = [set() for _ in range(n)]  # undirected, by id
    for s, t in pairs:
        out_deg[s] += 1
        in_deg[t] += 1
        if s < t:
            higher[s].add(t)
        elif t < s:
            higher[t].add(s)
        else:
            continue
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        if s != t:
            parent[t] = s
    components = sum(1 for i in range(n) if parent[i] == i)
    # a triangle a < b < c is counted once, at its edge (a, b)
    triangles = sum(len(up & higher[b]) for up in higher for b in up)

    degree_hist = Counter(i + o for i, o in zip(in_deg, out_deg))
    return {
        "nodes": n,
        "edges": len(pairs),
        "components": components,
        "triangles": triangles,
        "degree_distribution": dict(sorted(degree_hist.items())),
        "max_in_degree": max(in_deg, default=0),
        "max_out_degree": max(out_deg, default=0),
    }
