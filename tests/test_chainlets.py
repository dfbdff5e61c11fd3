"""Chainlet classification, matrices, folding, extreme reports."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgergraph.chainlets import (
    FirstOrderChainlet,
    UnsupportedKError,
    aggregate_timeseries,
    build_matrices,
    classify_first_order,
    extract_k_chainlets,
    extreme_chainlet_report,
    fold_matrix,
    snapshot_from_ledger,
)
from ledgergraph.generate import UtxoSpec, generate_utxo
from ledgergraph.utxo import Output, UtxoTransaction
from ledgergraph.utxo_graphs import txs_in_range

import worked_examples

COIN = worked_examples.COIN


def chainlet(x, y, total=0, txid="t"):
    return FirstOrderChainlet(txid=txid, x=x, y=y,
                              cls=("coinbase" if x == 0 else
                                   "merge" if x > y else
                                   "transition" if x == y else "split"),
                              output_total=total)


# -- classification ------------------------------------------------------------

def test_two_in_one_out_is_merge():
    # the x:y trichotomy is authoritative for C(2,1)
    tx = UtxoTransaction("t", (("a", 0), ("b", 0)),
                         (Output("t", 0, 5, "x"),))
    c = classify_first_order(tx)
    assert (c.x, c.y, c.cls) == (2, 1, "merge")


def test_one_in_one_out_is_transition():
    tx = UtxoTransaction("t", (("a", 0),), (Output("t", 0, 5, "x"),))
    assert classify_first_order(tx).cls == "transition"


def test_coinbase_class_and_dims():
    tx = UtxoTransaction("t", (), (Output("t", 0, 5, "x"),
                                   Output("t", 1, 5, "y")), coinbase=True)
    c = classify_first_order(tx)
    assert (c.x, c.y, c.cls) == (0, 2, "coinbase")


@given(st.integers(1, 50), st.integers(1, 50))
def test_classification_trichotomy(x, y):
    c = chainlet(x, y)
    assert c.cls == ("merge" if x > y else "transition" if x == y else "split")


# -- k-chainlets ------------------------------------------------------------------

def test_six_tx_network_has_six_first_order_chainlets():
    led = worked_examples.six_tx_network()
    ks = extract_k_chainlets(led, 1, *worked_examples.SIX_TX_WINDOW)
    assert len(ks) == 6
    assert sorted(k.tx_nodes[0] for k in ks) == ["t1", "t2", "t3", "t4", "t5", "t6"]


def test_k1_partitions_transactions():
    led = worked_examples.six_tx_network()
    ks = extract_k_chainlets(led, 1, *worked_examples.SIX_TX_WINDOW)
    seen = [k.tx_nodes[0] for k in ks]
    assert len(seen) == len(set(seen))


def test_k1_lists_each_address_once_and_every_edge():
    """t6 spends a7, a8 and a10 twice, and pays a12 and a10 again."""
    led = worked_examples.six_tx_network()
    t6 = {k.tx_nodes: k for k in extract_k_chainlets(led, 1,
                                                     *worked_examples.SIX_TX_WINDOW)}[("t6",)]
    assert t6.address_nodes == ("a7", "a8", "a10", "a12")
    assert t6.edges == (("a7", "t6"), ("a8", "t6"), ("a10", "t6"), ("a10", "t6"),
                        ("t6", "a12"), ("t6", "a10"))


def test_k2_pairs_include_figure_pairs():
    led = worked_examples.six_tx_network()
    ks = extract_k_chainlets(led, 2, *worked_examples.SIX_TX_WINDOW)
    pairs = {k.tx_nodes for k in ks}
    assert ("t1", "t5") in pairs and ("t2", "t6") in pairs
    directions = {k.tx_nodes: k.spend_direction for k in ks}
    assert directions[("t1", "t5")] == ("t1", "t5")


def test_k2_single_tx_snapshot_empty():
    led = worked_examples.weighted_example_ledger()
    assert extract_k_chainlets(led, 2, 1, 1) == []


def reference_k2_links(ledger, start, end):
    """The k=2 chainlets' (sorted pair, spend direction, member ids) from
    a walk over every input of the window."""
    in_window = {tx.id for tx in txs_in_range(ledger, start, end)}
    links = {}
    for tx in txs_in_range(ledger, start, end):
        for src, _idx in tx.inputs:
            if src in in_window:
                links.setdefault(tuple(sorted((src, tx.id))), (src, tx.id))
    return [(key, links[key]) for key in sorted(links)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 150),
       st.integers(0, 40), st.integers(0, 40))
def test_k2_chainlets_match_an_input_walk(seed, tx_count, a, b):
    ledger = generate_utxo(UtxoSpec(tx_count=tx_count, txs_per_block=4), seed)
    start, end = min(a, b), max(a, b)
    ks = extract_k_chainlets(ledger, 2, start, end)
    assert [(k.tx_nodes, k.spend_direction) for k in ks] == \
        reference_k2_links(ledger, start, end)
    for k in ks:
        producer, consumer = k.spend_direction
        members = (ledger.transactions[producer], ledger.transactions[consumer])
        expected = [(ledger.output(r).address, tx.id)
                    for tx in members for r in tx.inputs]
        expected += [(tx.id, o.address) for tx in members for o in tx.outputs]
        assert sorted(k.edges) == sorted(expected)


def test_k_above_two_unsupported():
    led = worked_examples.six_tx_network()
    with pytest.raises(UnsupportedKError):
        extract_k_chainlets(led, 3)


# -- matrices -----------------------------------------------------------------------

EXPECTED_O = np.array([[0, 2, 0], [1, 1, 1], [1, 0, 0]])
# 3.58 / 1.9 / 1.75 / 3 / 2.8 coins, in exact subunits
EXPECTED_A_SUBUNITS = np.array([
    [0, 358_000_000, 0],
    [190_000_000, 175_000_000, 300_000_000],
    [280_000_000, 0, 0],
])


def test_amount_network_matrices_match_text():
    led = worked_examples.amount_network()
    snap = snapshot_from_ledger(led, *worked_examples.AMOUNT_NETWORK_WINDOW)
    mats = build_matrices(snap, 3)
    occ, amt = mats.occurrence, mats.amount
    assert np.array_equal(occ, EXPECTED_O)
    assert np.array_equal(amt, EXPECTED_A_SUBUNITS)


def test_fold_example_matches_text():
    led = worked_examples.fold_example_ledger()
    snap = snapshot_from_ledger(led, *worked_examples.FOLD_EXAMPLE_WINDOW)
    mats = build_matrices(snap, 3)
    occ, amt = mats.occurrence, mats.amount
    assert np.array_equal(occ, [[0, 2, 1], [1, 1, 1], [1, 0, 3]])
    assert np.array_equal(fold_matrix(occ, 2), [[0, 3], [2, 5]])
    # 4.08 / 4.7 / 8.75 coins, in exact subunits
    assert np.array_equal(fold_matrix(amt, 2),
                          [[0, 408_000_000], [470_000_000, 875_000_000]])


def test_empty_snapshot_zero_matrix():
    occ = build_matrices([], 4).occurrence
    assert not any(map(any, occ))


def test_single_transition_amount():
    snap = [chainlet(1, 1, total=5 * COIN)]
    amt = build_matrices(snap, 3).amount
    assert amt[0][0] == 5 * COIN and sum(map(sum, amt)) == 5 * COIN


def test_mass_conservation_independent_of_n():
    led = worked_examples.fold_example_ledger()
    snap = [c for c in snapshot_from_ledger(led, 1, 1) if c.cls != "coinbase"]
    for n in (1, 2, 3, 7, 25):
        mats = build_matrices(snap, n)
        assert sum(map(sum, mats.occurrence)) == len(snap)
        assert sum(map(sum, mats.amount)) == sum(c.output_total for c in snap)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40),
                          st.integers(0, 10**9)), max_size=60),
       st.integers(2, 25), st.integers(1, 24))
def test_fold_consistency_property(shapes, n, n_prime_raw):
    n_prime = 1 + (n_prime_raw % (n - 1)) if n > 1 else 1
    snap = [chainlet(x, y, total=v, txid=f"t{i}")
            for i, (x, y, v) in enumerate(shapes)]
    wide, narrow = build_matrices(snap, n), build_matrices(snap, n_prime)
    for field in ("occurrence", "amount"):
        assert np.array_equal(fold_matrix(getattr(wide, field), n_prime),
                              getattr(narrow, field))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 30),
                          st.one_of(st.integers(0, 10**9),
                                    st.integers(2**62, 2**127 - 1))), max_size=40),
       st.integers(1, 25))
def test_matrices_and_folds_match_a_naive_dict_sum(shapes, n):
    """Every cell of the matrices and of each fold is the exact sum of its
    shapes' counts and amounts, also past 2**63."""
    snap = [chainlet(x, y, total=v, txid=f"t{i}")
            for i, (x, y, v) in enumerate(shapes)]
    mats = build_matrices(snap, n)
    for n_prime in range(1, n + 1):
        occ, amt = Counter(), Counter()
        for c in snap:
            if c.x:
                cell = (min(c.x, n_prime) - 1, min(c.y, n_prime) - 1)
                occ[cell] += 1
                amt[cell] += c.output_total
        for matrix, naive in ((mats.occurrence, occ), (mats.amount, amt)):
            assert fold_matrix(matrix, n_prime) == [
                [naive[i, j] for j in range(n_prime)] for i in range(n_prime)]


@pytest.mark.parametrize("matrix,n_prime,message", [
    ([[1, 2], [3]], 1, "chainlet matrices are square"),
    ([[1, 2], [3, 4]], 3, "cannot fold 2 to 3"),
    ([[1, 2], [3, 4]], 0, "cannot fold 2 to 0"),
])
def test_fold_matrix_rejects_what_it_cannot_fold(matrix, n_prime, message):
    with pytest.raises(ValueError, match=message):
        fold_matrix(matrix, n_prime)


# -- extreme chainlets -----------------------------------------------------------

def test_extreme_patterns():
    snap = [chainlet(2, 25, total=7, txid="sell"),
            chainlet(25, 2, total=8, txid="buy"),
            chainlet(5, 5, total=9, txid="mid"),
            chainlet(30, 40, total=1, txid="both")]
    report = extreme_chainlet_report(snap, 20)
    by_tx = {r["txid"]: r["pattern"] for r in report}
    assert by_tx == {"sell": "sell-pattern", "buy": "buy-pattern",
                     "both": "extreme-both"}


# -- aggregates --------------------------------------------------------------------

def test_aggregate_shares():
    window = [chainlet(1, 2)] * 4 + [chainlet(2, 1)]
    [(m, t, s), empty] = aggregate_timeseries([window, []])
    assert (m, t, s) == (20.0, 0.0, 80.0)
    assert empty == (0.0, 0.0, 0.0)


def test_all_transition_window():
    [(m, t, s)] = aggregate_timeseries([[chainlet(3, 3)] * 7])
    assert (m, t, s) == (0.0, 100.0, 0.0)


def test_shares_sum_to_100():
    led = worked_examples.amount_network()
    snap = snapshot_from_ledger(led, 1, 1)
    [(m, t, s)] = aggregate_timeseries([snap])
    assert abs(m + t + s - 100.0) < 1e-9


def test_build_matrices_bundle():
    led = worked_examples.amount_network()
    snap = snapshot_from_ledger(led, 1, 1)
    mats = build_matrices(snap, 3)
    assert sum(map(sum, mats.occurrence)) == 6
