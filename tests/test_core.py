"""Units, amounts and the deterministic export containers."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ledgergraph.core import (
    BTC,
    DROP,
    SATOSHI,
    XRP,
    Amount,
    AmountOverflowError,
    Edge,
    EdgeList,
    Hyperedge,
    IncompatibleUnitsError,
    MAX_AMOUNT,
    NonIntegralConversionError,
    convert_unit,
    export_edge_list,
    export_matrix,
    issued,
)


def test_btc_to_satoshi():
    assert convert_unit(Amount(1, BTC), SATOSHI) == Amount(100_000_000, SATOSHI)


def test_xrp_to_drops():
    assert convert_unit(Amount(1, XRP), DROP) == Amount(1_000_000, DROP)


def test_zero_converts_to_zero():
    for a, b in [(BTC, SATOSHI), (XRP, DROP), (SATOSHI, BTC)]:
        assert convert_unit(Amount(0, a), b).value == 0


def test_non_integral_conversion_rejected():
    with pytest.raises(NonIntegralConversionError):
        convert_unit(Amount(1, SATOSHI), BTC)


def test_cross_family_conversion_rejected():
    with pytest.raises(IncompatibleUnitsError):
        convert_unit(Amount(1, BTC), DROP)


@given(st.integers(min_value=-(MAX_AMOUNT // 10**8),
                   max_value=MAX_AMOUNT // 10**8))
def test_conversion_round_trip(value):
    btc = Amount(value, BTC)
    assert convert_unit(convert_unit(btc, SATOSHI), BTC) == btc


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
       st.integers(-10**30, 10**30))
def test_addition_associative(a, b, c):
    x, y, z = (Amount(v, SATOSHI) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)


def test_overflow_raises_at_boundary():
    top = Amount(MAX_AMOUNT, SATOSHI)
    with pytest.raises(AmountOverflowError):
        top + Amount(1, SATOSHI)
    Amount(MAX_AMOUNT, SATOSHI)  # the boundary itself is representable
    with pytest.raises(AmountOverflowError):
        Amount(MAX_AMOUNT + 1, SATOSHI)


def test_mixed_unit_arithmetic_rejected():
    with pytest.raises(IncompatibleUnitsError):
        Amount(1, BTC) + Amount(1, SATOSHI)


def test_issued_currency_code_length():
    issued("USD")
    issued("A" * 40, "gateway")
    with pytest.raises(IncompatibleUnitsError):
        issued("USDX")


def test_simple_graph_rejects_duplicate_edge():
    el = EdgeList(directed=True, multi=False)
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
