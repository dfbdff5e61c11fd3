"""Walking the six-transaction UTXO network
============================================

Builds the twelve-address example ledger, then extracts the two classic
one-node-type views: the transaction graph (producers -> consumers) and
the ratio-weighted address graph, plus a coin lineage trace.
"""

import os
from fractions import Fraction

from ledgergraph.core import export_edge_list, read_lines
from ledgergraph.utxo import COIN, load_jsonl, trace_lineage
from ledgergraph.utxo_graphs import (
    build_address_graph,
    build_bipartite_graph,
    build_transaction_graph,
    graph_stats,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_ledger(name, subsidy):
    """A committed example ledger, validated with a flat block subsidy."""
    return load_jsonl(read_lines(os.path.join(FIXTURES, name)), subsidy=subsidy)


ledger = fixture_ledger("six_tx_network.jsonl", 6 * COIN)
window = (1, 2)  # the blocks holding t1..t6

print("=== transaction graph (a node can appear only once) ===")
tx_graph = build_transaction_graph(ledger, *window)
for e in tx_graph.edges:  # rows are in (producer, consumer) order
    note = f"  ({e.weight} outputs consumed)" if e.weight > 1 else ""
    print(f"  {e.source} -> {e.target}{note}")

print("\n=== address graph keeps what the tx graph loses ===")
addr_graph = build_address_graph(ledger, *window)
addr_nodes = addr_graph.nodes()
print(f"  nodes: {len(addr_nodes)}, edges: {len(addr_graph.edges)}")
reuse = [e for e in addr_graph.edges if (e.source, e.target) == ("a9", "a1")]
loop = [e for e in addr_graph.edges if e.source == e.target == "a10"]
print(f"  past reuse edge a9->a1 present: {bool(reuse)}")
print(f"  change-back self-loop at a10:  {bool(loop)}")

print("\n=== every edge weight is an exact rational ===")
led = fixture_ledger("weighted_example.jsonl", 4 * COIN)
for e in build_address_graph(led, 1, 1).edges:
    btc = e.weight / Fraction(10**8)
    print(f"  w({e.source}->{e.target}) = {btc} BTC")

print("\n=== lineage of a merged output ===")
lineage = fixture_ledger("lineage.jsonl", 10 * COIN)
for path in trace_lineage(("t3", 0), lineage):
    pretty = " -> ".join(f"{t}:{i}" for t, i in path)
    print(f"  {pretty}")

print("\n=== deterministic CSV export (first rows) ===")
data = export_edge_list(build_bipartite_graph(ledger, *window)).decode()
print("  " + "\n  ".join(data.splitlines()[:5]))

print("\n=== summary statistics ===")
print(" ", graph_stats(addr_graph))
