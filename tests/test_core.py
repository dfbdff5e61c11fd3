"""The amount bound and the deterministic export containers."""

import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ledgergraph.core import (
    AmountOverflowError,
    BadRecordError,
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
    with pytest.raises(BadRecordError):
        Output("t", 0, -1, "a")


def test_issued_currency_code_length():
    CurrencyValue("USD", "gateway", 1)
    CurrencyValue("A" * 40, "gateway", 1)
    with pytest.raises(BadRecordError):
        CurrencyValue("USDX", "gateway", 1)


def test_hyperedge_needs_two_members():
    with pytest.raises(ValueError):
        Hyperedge(("only",))


def test_export_empty_graph_is_header_only():
    data = export_edge_list(EdgeList())
    assert data == b"source,target,weight_num,weight_den,attr_json\n"


def test_export_single_edge():
    import csv
    import io
    el = EdgeList([Edge.make("a", "b", Fraction(27, 29), txid="t")])
    text = export_edge_list(el).decode()
    assert text.splitlines()[0] == "source,target,weight_num,weight_den,attr_json"
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1] == ["a", "b", "27", "29", '{"txid":"t"}']


def test_export_is_order_independent_and_stable():
    e1 = Edge.make("a", "b", 1, txid="t1")
    e2 = Edge.make("a", "a", 2, txid="t2")
    e3 = Edge.make("b", "a", None, txid="t3")
    g1, g2 = EdgeList([e1, e2, e3]), EdgeList([e3, e1, e2])
    assert export_edge_list(g1) == export_edge_list(g2)
    assert export_edge_list(g1) == export_edge_list(g1)
    payload = json.loads(export_edge_list(g1, "json").decode())
    assert len(payload) == 3


def test_matrix_export_shape():
    assert export_matrix([[1, 2], [3, 4]]) == b"1,2\n3,4\n"
    assert export_matrix([]) == b""


def _reference_export(edges, fmt):
    """export_edge_list as first written: one JSON dump and one hash per
    row, sorted by (source, target, attribute hash, num, den)."""
    def dump(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)

    def row(edge):
        if edge.weight is None:
            num = den = ""
        else:
            w = Fraction(edge.weight)
            num, den = str(w.numerator), str(w.denominator)
        return edge.source, edge.target, num, den, dump(edge.attr_dict)

    def quote(cell):
        if any(c in cell for c in ',"\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    rows = sorted((row(e) for e in edges), key=lambda r: (
        r[0], r[1], hashlib.sha256(r[4].encode("utf-8")).hexdigest(), r[2], r[3]))
    if fmt == "csv":
        out = io.StringIO()
        out.write("source,target,weight_num,weight_den,attr_json\n")
        for r in rows:
            out.write(",".join(quote(c) for c in r) + "\n")
        return out.getvalue().encode("utf-8")
    payload = [{"source": s, "target": t, "weight_num": n, "weight_den": d,
                "attrs": json.loads(a)} for s, t, n, d, a in rows]
    return (dump(payload) + "\n").encode("utf-8")


_names = st.sampled_from(["a", "b", "a,b", 'q"x', "line\nbreak", "é", "ü,\"\n"])
_weights = st.one_of(st.none(), st.integers(-10**20, 10**20),
                     st.fractions(max_denominator=10**6))
_values = st.one_of(st.sampled_from([True, 1, 1.0, False, 0, -0.0, "1", None]),
                    st.lists(st.integers(0, 2), max_size=2), _names)
_attrs = st.dictionaries(st.sampled_from(["k", "x,y"]), _values, max_size=2)
_edges = st.lists(st.builds(
    lambda s, t, w, a: Edge(s, t, w, tuple(sorted(a.items()))),
    _names, _names, _weights, _attrs), max_size=25)


@settings(max_examples=200, deadline=None)
@given(_edges, st.randoms(use_true_random=False))
def test_export_matches_per_row_reference(edges, rng):
    edges = edges + edges[: len(edges) // 3]  # duplicate rows
    rng.shuffle(edges)
    for fmt in ("csv", "json"):
        assert export_edge_list(edges, fmt) == _reference_export(edges, fmt)


def test_export_memo_tells_equal_values_of_other_types_apart():
    edges = [Edge.make("a", "b", 1, k=v) for v in (True, 1, 1.0, 0.0, -0.0)]
    edges += [Edge.make("a", "b", 1, k=[1, 2]), Edge.make("a", "b", 1, k=(1, True)),
              Edge.make("a", "b", 1, k=(1, 1))]
    text = export_edge_list(edges).decode()
    for cell in ('{""k"":true}', '{""k"":1}', '{""k"":1.0}', '{""k"":0.0}',
                 '{""k"":-0.0}', '{""k"":[1,2]}', '{""k"":[1,true]}',
                 '{""k"":[1,1]}'):
        assert f'"{cell}"' in text
    assert export_edge_list(edges) == _reference_export(edges, "csv")
