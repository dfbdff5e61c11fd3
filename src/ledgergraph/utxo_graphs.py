"""Graph builders over a finalized UTXO ledger: the transaction graph,
the ratio-weighted address graph, the address-transaction bipartite
network, and a deterministic summary used to verify structural claims
(sparsity, triangle-freeness) on synthetic data.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Edge, EdgeList, LedgerError
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
        el = EdgeList(multi=False)
        for (src, dst), count in self.edges.items():
            el.add(Edge.make(src, dst, count, spent_outputs=count))
        return el


@dataclass
class AddressGraph:
    """Directed multigraph on addresses; one edge per (tx, input, output)
    triple so the |I|x|O| identity stays exactly testable. Weights are
    exact rational subunits."""

    nodes: list[str] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    def to_edge_list(self) -> EdgeList:
        el = EdgeList(multi=True)
        for e in self.edges:
            el.add(e)
        return el


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
    transaction's input total. Coinbase transactions contribute edges only
    when a virtual source node name is supplied.
    """
    txs = txs_in_range(ledger, start, end)
    if not txs:
        raise EmptyRangeError(f"no transactions in blocks [{start}, {end}]")
    graph = AddressGraph()
    seen_nodes: dict[str, None] = {}

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
            sources: list[tuple[str, int]] = [(coinbase_source, out_total)]
        else:
            sources = []
            for ref in tx.inputs:
                spent = ledger.output(ref)
                if not spent.amount_visible:
                    raise HiddenAmountError(
                        f"input {ref} has a hidden amount (RingCT)"
                    )
                sources.append((spent.address, spent.amount))
        for src_addr, src_amount in sources:
            for out in tx.outputs:
                if out_total == 0:
                    weight = Fraction(0)
                else:
                    weight = Fraction(src_amount) * Fraction(out.amount, out_total)
                edge = Edge.make(src_addr, out.address, weight, txid=tx.id)
                graph.edges.append(edge)
                seen_nodes.setdefault(src_addr)
                seen_nodes.setdefault(out.address)
    graph.nodes = list(seen_nodes)
    return graph


def build_bipartite_graph(ledger: Ledger, start: int | None = None,
                          end: int | None = None) -> EdgeList:
    """The raw address-transaction network: address->tx rows for consumed
    outputs, tx->address rows for created outputs."""
    txs = txs_in_range(ledger, start, end)
    el = EdgeList(multi=True)
    for tx in txs:
        for ref in tx.inputs:
            spent = ledger.output(ref)
            el.add(Edge.make(spent.address, tx.id,
                             spent.amount if spent.amount_visible else None,
                             output=f"{ref[0]}:{ref[1]}"))
        for out in tx.outputs:
            el.add(Edge.make(tx.id, out.address,
                             out.amount if out.amount_visible else None,
                             output=f"{out.ref[0]}:{out.ref[1]}"))
    return el


# --------------------------------------------------------------------------
# Summary statistics

class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def graph_stats(graph: AddressGraph | EdgeList) -> dict:
    """Deterministic summary of a graph's edges: node/edge counts, degree
    distribution, weakly connected components, and undirected triangle
    count. The nodes are the edge endpoints in first-seen order."""
    pairs = [(e.source, e.target) for e in graph.edges]
    nodes = list(dict.fromkeys(n for pair in pairs for n in pair))

    out_deg: Counter[str] = Counter()
    in_deg: Counter[str] = Counter()
    uf = _UnionFind()
    for n in nodes:
        uf.find(n)
    neighbors: dict[str, set[str]] = defaultdict(set)
    for s, t in pairs:
        out_deg[s] += 1
        in_deg[t] += 1
        uf.union(s, t)
        if s != t:
            neighbors[s].add(t)
            neighbors[t].add(s)

    components = len({uf.find(n) for n in nodes}) if nodes else 0
    triangles = 0
    order = {n: i for i, n in enumerate(sorted(neighbors))}
    for a in sorted(neighbors):
        for b in neighbors[a]:
            if order.get(b, -1) <= order[a]:
                continue
            common = neighbors[a] & neighbors[b]
            triangles += sum(1 for c in common if order.get(c, -1) > order[b])

    degree_hist = Counter(in_deg[n] + out_deg[n] for n in nodes)
    return {
        "nodes": len(nodes),
        "edges": len(pairs),
        "components": components,
        "triangles": triangles,
        "degree_distribution": dict(sorted(degree_hist.items())),
        "max_in_degree": max(in_deg.values(), default=0),
        "max_out_degree": max(out_deg.values(), default=0),
    }
