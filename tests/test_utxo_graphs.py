"""Transaction graph, weighted address graph, bipartite export, stats."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ledgergraph import fixtures
from ledgergraph.core import Edge, EdgeList, export_edge_list
from ledgergraph.utxo_graphs import (
    EmptyRangeError,
    HiddenAmountError,
    build_address_graph,
    build_bipartite_graph,
    build_transaction_graph,
    graph_stats,
)
from ledgergraph.utxo import Block, Ledger, Output, UtxoTransaction
from ledgergraph.generate import UtxoSpec, generate_utxo

COIN = fixtures.COIN

SIX_TX_EDGES = {
    ("t1", "t5"): 1, ("t2", "t5"): 1, ("t2", "t6"): 2,
    ("t3", "t5"): 1, ("t3", "t6"): 1, ("t4", "t6"): 1,
}


def test_six_tx_transaction_graph_edges():
    led = fixtures.six_tx_network()
    graph = build_transaction_graph(led, *fixtures.SIX_TX_WINDOW)
    assert graph.edges == SIX_TX_EDGES
    assert sorted(graph.nodes) == ["t1", "t2", "t3", "t4", "t5", "t6"]


def test_single_coinbase_ledger_graph():
    led = Ledger()
    cb = UtxoTransaction("c", (), (Output("c", 0, 5, "a"),), coinbase=True)
    led.apply_block(Block(0, 0, (cb,), 5))
    graph = build_transaction_graph(led)
    assert graph.nodes == ["c"] and graph.edges == {}


def test_chain_of_three_is_a_path():
    led = Ledger()
    cb = UtxoTransaction("g", (), (Output("g", 0, 1000, "a"),), coinbase=True)
    led.apply_block(Block(0, 0, (cb,), 10**9))
    cb1 = UtxoTransaction("c1", (), (Output("c1", 0, 1, "m"),), coinbase=True)
    t1 = UtxoTransaction("t1", (("g", 0),),
                         (Output("t1", 0, 900, "b"),))
    t2 = UtxoTransaction("t2", (("t1", 0),),
                         (Output("t2", 0, 800, "c"),))
    led.apply_block(Block(1, 600, (cb1, t1, t2), 10**9))
    graph = build_transaction_graph(led, 1, 1)
    assert graph.edges == {("t1", "t2"): 1}


def test_empty_range_rejected():
    led = fixtures.six_tx_network()
    with pytest.raises(EmptyRangeError):
        build_transaction_graph(led, 10, 20)


def test_transaction_graph_is_acyclic():
    led = generate_utxo(UtxoSpec(tx_count=300), seed=5)
    graph = build_transaction_graph(led)
    order = {}
    for block in led.blocks:
        for t in block.transactions:
            order[t.id] = len(order)
    assert all(order[a] < order[b] for (a, b) in graph.edges)


# -- address graph -------------------------------------------------------------

def test_worked_edge_weights_exact():
    led = fixtures.weighted_example_ledger()
    graph = build_address_graph(led, 1, 1)
    weights = {(e.source, e.target): e.weight for e in graph.edges}
    in_btc = {k: w / Fraction(10**8) for k, w in weights.items()}
    assert in_btc[("a2", "a3")] == Fraction(27, 29)
    assert in_btc[("a2", "a4")] == Fraction(60, 29)
    assert in_btc[("a1", "a3")] == Fraction(9, 29)
    assert in_btc[("a1", "a4")] == Fraction(20, 29)


def test_row_weights_are_the_formula_int_or_fraction():
    """Each row's weight is A(i)*A(j)/sum A(out), in build order: an int
    when it reduces to a whole number, a Fraction otherwise."""
    led = fixtures.weighted_example_ledger()
    graph = build_address_graph(led, 1, 1)
    expected = []
    for block in led.blocks[1:]:
        for tx in block.transactions[1:]:
            total = sum(out.amount for out in tx.outputs)
            for ref in tx.inputs:
                spent = led.output(ref)
                expected += [(spent.address, out.address,
                              Fraction(spent.amount * out.amount, total))
                             for out in tx.outputs]
    rows = [(e.source, e.target, e.weight) for e in graph.edges]
    assert rows == expected
    for (_s, _t, weight), (_s2, _t2, fraction) in zip(rows, expected):
        assert type(weight) is (int if fraction.denominator == 1 else Fraction)


@pytest.mark.parametrize("build", [build_address_graph, build_bipartite_graph])
def test_rows_read_back_export_the_same_bytes(build):
    led = generate_utxo(UtxoSpec(tx_count=120, address_reuse_p=0.4), seed=5)
    graph = build(led)
    for fmt in ("csv", "json"):
        assert export_edge_list(EdgeList(graph.edges), fmt) == \
            export_edge_list(graph, fmt)


def test_row_view_length_builds_no_edge(monkeypatch):
    import ledgergraph.core as core

    graph = build_address_graph(fixtures.six_tx_network(), *fixtures.SIX_TX_WINDOW)
    monkeypatch.setattr(core, "Edge", None)  # building a row would fail
    assert len(graph.edges) == len(graph) == 22
    with pytest.raises(TypeError):
        next(iter(graph.edges))


def test_row_view_is_read_only():
    """The rows are read from the columns; builders add to the columns."""
    import pathlib
    import re

    graph = build_address_graph(fixtures.six_tx_network(), *fixtures.SIX_TX_WINDOW)
    assert not hasattr(graph.edges, "append")
    with pytest.raises(TypeError):
        graph.edges[0] = graph.edges[1]
    src = pathlib.Path(__file__).parent.parent / "src"
    appended = {m for path in src.rglob("*.py")
                for m in re.findall(r"\.edges\.append\((\w+)", path.read_text())}
    assert appended <= {"Hyperedge"}  # only hypergraphs keep an edge list


def test_row_view_slices_and_graphs_compare_by_value():
    led = fixtures.six_tx_network()
    graph = build_address_graph(led, *fixtures.SIX_TX_WINDOW)
    rows = list(graph.edges)
    assert graph.edges[2:9:3] == rows[2:9:3]
    assert graph.edges[-1] == rows[-1]
    other = build_address_graph(led, *fixtures.SIX_TX_WINDOW)
    assert graph == other
    other.add("a1", "a5", 1)
    assert graph != other
    assert repr(graph) == f"AddressGraph(edges={rows!r})"


def test_extend_keeps_the_columns_equal_in_length():
    graph = EdgeList()
    graph.extend(["a", "b"], ["b", "c"], [4, None], [(), (("k", 1),)])
    assert graph.dens == [1, 1]
    assert list(graph.edges) == [Edge("a", "b", 4), Edge("b", "c", None, (("k", 1),))]
    with pytest.raises(ValueError):
        graph.extend(["a"], ["b"], [1, 2], [(), ()])
    assert len(graph.sources) == len(graph.nums) == 2


def test_single_in_single_out_edge_carries_full_input():
    led = fixtures.lineage_ledger()
    graph = build_address_graph(led, 1, 1)  # t2: a spends 5 COIN into c
    [edge] = [e for e in graph.edges if e.attr_dict["txid"] == "t2"]
    assert edge.weight == Fraction(5 * COIN)


def test_edge_count_is_inputs_times_outputs():
    led = fixtures.six_tx_network()
    graph = build_address_graph(led, *fixtures.SIX_TX_WINDOW)
    by_tx = {}
    for e in graph.edges:
        by_tx[e.attr_dict["txid"]] = by_tx.get(e.attr_dict["txid"], 0) + 1
    assert by_tx == {"t1": 2 * 1, "t2": 2 * 3, "t5": 3 * 2, "t6": 4 * 2}


def test_weight_conservation_per_tx():
    led = generate_utxo(UtxoSpec(tx_count=200), seed=9)
    graph = build_address_graph(led)
    sums, inputs = {}, {}
    for e in graph.edges:
        txid = e.attr_dict["txid"]
        sums[txid] = sums.get(txid, Fraction(0)) + e.weight
    for block in led.blocks:
        for t in block.transactions:
            if t.coinbase:
                continue
            inputs[t.id] = Fraction(sum(led.output(r).amount
                                        for r in t.inputs))
    assert sums == inputs  # exact rational equality


def test_address_graph_records_reuse_and_self_loop():
    led = fixtures.six_tx_network()
    graph = build_address_graph(led, *fixtures.SIX_TX_WINDOW)
    pairs = {(e.source, e.target) for e in graph.edges}
    assert ("a9", "a1") in pairs  # past address reuse stays visible
    assert ("a10", "a10") in pairs  # change-back self-loop
    assert len(graph.to_edge_list().nodes()) == 12


def test_unspent_output_visible_only_in_address_graph():
    led = fixtures.six_tx_network()
    tgraph = build_transaction_graph(led, *fixtures.SIX_TX_WINDOW)
    agraph = build_address_graph(led, *fixtures.SIX_TX_WINDOW)
    # a11 received one output from t5 and never spends it
    tx_nodes_with_a11 = [n for n in tgraph.nodes if n == "a11"]
    assert not tx_nodes_with_a11
    assert any(e.target == "a11" for e in agraph.edges)


def test_hidden_amounts_block_address_graph():
    led = Ledger()
    cb = UtxoTransaction("g", (), (Output("g", 0, 1000, "a"),), coinbase=True)
    led.apply_block(Block(0, 0, (cb,), 1000))
    cb1 = UtxoTransaction("c1", (), (Output("c1", 0, 1, "m"),), coinbase=True)
    hidden = UtxoTransaction(
        "h", (("g", 0),),
        (Output("h", 0, 900, "b", amount_visible=False),))
    led.apply_block(Block(1, 600, (cb1, hidden), 1000))
    with pytest.raises(HiddenAmountError):
        build_address_graph(led, 1, 1)


# -- bipartite export ----------------------------------------------------------

def test_six_tx_bipartite_has_22_rows():
    # hand count: t1 2+1, t2 2+3, t3 0+2, t4 0+1, t5 3+2, t6 4+2
    led = fixtures.six_tx_network()
    graph = build_bipartite_graph(led, *fixtures.SIX_TX_WINDOW)
    assert len(graph) == 22
    data = export_edge_list(graph)
    assert data.count(b"\n") == 23  # header + rows
    assert export_edge_list(build_bipartite_graph(led, *fixtures.SIX_TX_WINDOW)) \
        == data  # two builds, identical bytes


# -- stats -----------------------------------------------------------------------

def brute_force_triangles(pairs):
    nodes = sorted({n for p in pairs for n in p})
    und = {frozenset(p) for p in pairs if p[0] != p[1]}
    count = 0
    for trio in combinations(nodes, 3):
        a, b, c = trio
        if {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= und:
            count += 1
    return count


def test_stats_empty_graph():
    from ledgergraph.core import EdgeList
    stats = graph_stats(EdgeList())
    assert stats["nodes"] == 0 and stats["edges"] == 0
    assert stats["triangles"] == 0 and stats["components"] == 0


def test_stats_fixture_address_graph():
    led = fixtures.six_tx_network()
    stats = graph_stats(build_address_graph(led, *fixtures.SIX_TX_WINDOW))
    assert stats["nodes"] == 12


def test_reuse_free_ledger_has_no_triangles():
    led = generate_utxo(UtxoSpec(tx_count=40, address_reuse_p=0.0), seed=21)
    graph = build_address_graph(led)
    stats = graph_stats(graph)
    pairs = [(e.source, e.target) for e in graph.edges]
    assert stats["triangles"] == brute_force_triangles(pairs)
    assert stats["triangles"] == 0
    # triangle-freeness also holds at a scale the oracle cannot reach
    big = graph_stats(build_address_graph(
        generate_utxo(UtxoSpec(tx_count=400, address_reuse_p=0.0), seed=22)))
    assert big["triangles"] == 0


def test_triangle_count_matches_brute_force_with_reuse():
    led = generate_utxo(UtxoSpec(tx_count=30, address_reuse_p=0.5), seed=3)
    graph = build_address_graph(led)
    pairs = [(e.source, e.target) for e in graph.edges]
    assert graph_stats(graph)["triangles"] == brute_force_triangles(pairs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
def test_stats_agree_with_networkx(pairs):
    """Directed multigraphs with self-loops and parallel edges: every
    statistic equals networkx's on the same edges."""
    nx = pytest.importorskip("networkx")
    stats = graph_stats(EdgeList(edges=[Edge(f"n{s}", f"n{t}") for s, t in pairs]))
    multi = nx.MultiDiGraph()
    multi.add_edges_from((f"n{s}", f"n{t}") for s, t in pairs)
    simple = nx.Graph(multi.to_undirected())
    simple.remove_edges_from(nx.selfloop_edges(simple))
    in_deg, out_deg = dict(multi.in_degree()), dict(multi.out_degree())
    assert stats["nodes"] == multi.number_of_nodes()
    assert stats["edges"] == multi.number_of_edges() == len(pairs)
    assert stats["components"] == nx.number_weakly_connected_components(multi)
    assert stats["triangles"] == sum(nx.triangles(simple).values()) // 3
    hist = Counter(in_deg[n] + out_deg[n] for n in multi)
    assert stats["degree_distribution"] == dict(sorted(hist.items()))
    assert stats["max_in_degree"] == max(in_deg.values(), default=0)
    assert stats["max_out_degree"] == max(out_deg.values(), default=0)
