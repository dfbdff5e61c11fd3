"""The amount bound and the deterministic export containers."""

import json
from fractions import Fraction

import pytest

from ledgergraph.core import (
    AmountOverflowError,
    Edge,
    EdgeList,
    Hyperedge,
    MAX_AMOUNT,
    export_edge_list,
    export_matrix,
)
from ledgergraph.ripple import CurrencyValue
from ledgergraph.utxo import Output


def test_overflow_raises_at_boundary():
    Output("t", 0, MAX_AMOUNT, "a")  # the boundary itself is representable
    with pytest.raises(AmountOverflowError):
        Output("t", 0, MAX_AMOUNT + 1, "a")


def test_output_amount_must_be_a_non_negative_int():
    with pytest.raises(TypeError):
        Output("t", 0, 1.0, "a")
    with pytest.raises(ValueError):
        Output("t", 0, -1, "a")


def test_issued_currency_code_length():
    CurrencyValue("USD", "gateway", 1)
    CurrencyValue("A" * 40, "gateway", 1)
    with pytest.raises(ValueError):
        CurrencyValue("USDX", "gateway", 1)


def test_simple_graph_rejects_duplicate_edge():
    el = EdgeList(multi=False)
    el.add(Edge.make("a", "b", 1, currency="USD"))
    el.add(Edge.make("a", "b", 1, currency="EUR"))  # distinct currency is fine
    with pytest.raises(ValueError):
        el.add(Edge.make("a", "b", 2, currency="USD"))


def test_hyperedge_needs_two_members():
    with pytest.raises(ValueError):
        Hyperedge(("only",))


def test_export_empty_graph_is_header_only():
    data = export_edge_list(EdgeList())
    assert data == b"source,target,weight_num,weight_den,attr_json\n"


def test_export_single_edge():
    import csv
    import io
    el = EdgeList()
    el.add(Edge.make("a", "b", Fraction(27, 29), txid="t"))
    text = export_edge_list(el).decode()
    assert text.splitlines()[0] == "source,target,weight_num,weight_den,attr_json"
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1] == ["a", "b", "27", "29", '{"txid":"t"}']


def test_export_is_order_independent_and_stable():
    e1 = Edge.make("a", "b", 1, txid="t1")
    e2 = Edge.make("a", "a", 2, txid="t2")
    e3 = Edge.make("b", "a", None, txid="t3")
    g1, g2 = EdgeList(), EdgeList()
    for e in (e1, e2, e3):
        g1.add(e)
    for e in (e3, e1, e2):
        g2.add(e)
    assert export_edge_list(g1) == export_edge_list(g2)
    assert export_edge_list(g1) == export_edge_list(g1)
    payload = json.loads(export_edge_list(g1, "json").decode())
    assert len(payload) == 3


def test_matrix_export_shape():
    assert export_matrix([[1, 2], [3, 4]]) == b"1,2\n3,4\n"
    assert export_matrix([]) == b""
