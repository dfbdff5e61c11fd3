"""Acceptance gate: every criterion at its stated tolerance and time
budget, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ledgergraph.chainlets import (
    FirstOrderChainlet,
    amount_matrix,
    fold_matrix,
    occurrence_matrix,
    snapshot_from_ledger,
)
from ledgergraph.core import LedgerError
from ledgergraph.generate import UtxoSpec, generate_utxo
from ledgergraph.iota.bundles import build_bundle
from ledgergraph.iota.keys import derive_address, derive_private_key, derive_subseed
from ledgergraph.iota.tangle import GENESIS_HASH, TangleState
from ledgergraph.iota.trinary import TRYTE_ALPHABET, decode_trytes, encode_trytes
from ledgergraph.ripple import CurrencyValue, PaymentSpec, RippleLedger
from ledgergraph.utxo import RING_SIZE, build_ring_input, classify_zcash_tx
from ledgergraph.utxo_graphs import build_address_graph

import worked_examples
from offer_streams import OfferSpec, generate_offer_stream

COIN = worked_examples.COIN


class Budget:
    """Wall-clock guard printing the criterion verdict."""

    def __init__(self, number: int, title: str, seconds: float):
        self.number, self.title, self.seconds = number, title, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.title} "
              f"({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s: {elapsed:.2f}s")
        return False


def test_criterion_1_edge_weight_formula():
    with Budget(1, "address-graph edge weights are exact rationals", 1.0):
        led = worked_examples.weighted_example_ledger()
        graph = build_address_graph(led, 1, 1)
        weights = {(e.source, e.target): e.weight / Fraction(10**8)
                   for e in graph.edges}
        assert weights[("a2", "a3")] == Fraction(27, 29)  # zero tolerance
        assert weights[("a2", "a4")] == Fraction(60, 29)


def test_criterion_2_chainlet_matrices():
    with Budget(2, "occurrence/amount matrices and boundary folding", 1.0):
        led = worked_examples.amount_network()
        snap = snapshot_from_ledger(led, *worked_examples.AMOUNT_NETWORK_WINDOW)
        occ = occurrence_matrix(snap, 3)
        amt = amount_matrix(snap, 3)
        assert np.array_equal(occ, [[0, 2, 0], [1, 1, 1], [1, 0, 0]])
        assert np.array_equal(amt, [[0, 358_000_000, 0],
                                    [190_000_000, 175_000_000, 300_000_000],
                                    [280_000_000, 0, 0]])
        led2 = worked_examples.fold_example_ledger()
        snap2 = snapshot_from_ledger(led2, *worked_examples.FOLD_EXAMPLE_WINDOW)
        occ2 = occurrence_matrix(snap2, 3)
        amt2 = amount_matrix(snap2, 3)
        assert np.array_equal(fold_matrix(occ2, 2), [[0, 3], [2, 5]])
        assert np.array_equal(fold_matrix(amt2, 2),
                              [[0, 408_000_000], [470_000_000, 875_000_000]])


def test_criterion_3_fold_consistency():
    with Budget(3, "fold consistency over 200 random snapshots, N' < N <= 25", 60.0):
        rng = random.Random(2024)
        for s in range(200):
            snap = [
                FirstOrderChainlet(
                    txid=f"t{i}", x=(x := rng.randint(0, 40)),
                    y=(y := rng.randint(1, 40)),
                    cls="coinbase" if x == 0 else
                        "merge" if x > y else
                        "transition" if x == y else "split",
                    output_total=rng.randint(0, 10**10))
                for i in range(rng.randint(0, 50))
            ]
            direct_occ = {n: occurrence_matrix(snap, n) for n in range(1, 26)}
            direct_amt = {n: amount_matrix(snap, n) for n in range(1, 26)}
            for n in range(2, 26):
                for n_prime in range(1, n):
                    assert np.array_equal(fold_matrix(direct_occ[n], n_prime),
                                          direct_occ[n_prime])
                    assert np.array_equal(fold_matrix(direct_amt[n], n_prime),
                                          direct_amt[n_prime])


def test_criterion_4_utxo_conservation_at_scale():
    with Budget(4, "conservation and brute-force UTXO replay on 1e5 txs", 30.0):
        led = generate_utxo(UtxoSpec(tx_count=100_000), seed=1)
        # per-transaction conservation: sum(in) = sum(out) + fee, fee >= 0
        fee_by_block: dict[int, int] = {}
        for block in led.blocks:
            fees = 0
            for tx in block.transactions[1:]:
                total_in = sum(led.output(r).amount for r in tx.inputs)
                fee = total_in - tx.output_total()
                assert fee >= 0
                fees += fee
            fee_by_block[block.height] = fees
            coinbase_claim = block.transactions[0].output_total()
            assert coinbase_claim <= block.subsidy + fees
        # final unspent set equals an independent replay from genesis
        created, consumed = {}, set()
        for block in led.blocks:
            for tx in block.transactions:
                consumed.update(tx.inputs)
                for out in tx.outputs:
                    created[out.ref] = out.amount
        replayed = {r: v for r, v in created.items() if r not in consumed}
        assert {r: o.amount for r, o in led.utxo.items()} == replayed


def test_criterion_5_rippling_scenario():
    with Budget(5, "path settlement, atomic failure, partial delivery", 1.0):
        led = worked_examples.rippling_network()
        led.pay(PaymentSpec("sarah", "bob", CurrencyValue("USD", None, 50)))
        owed = {
            ("tim", "sarah"): 50, ("john", "tim"): 75, ("bob", "john"): 65,
        }
        for (lender, borrower), expected in owed.items():
            state = led.line(lender, borrower, "USD")
            used = state.balance if lender == state.low else -state.balance
            assert used == expected
        before = led.state_digest()
        with pytest.raises(LedgerError):
            led.execute_rippling(("sarah", "tim", "john", "bob"), 50, "USD")
        assert led.state_digest() == before  # snapshot equality after failure
        result = led.pay(PaymentSpec("sarah", "bob",
                                     CurrencyValue("USD", None, 50),
                                     tf_partial_payment=True))
        assert result["delivered"] == 25  # min hop capacity, exactly


def test_criterion_6_offer_matching():
    with Budget(6, "offer examples and residual book vs brute force", 10.0):
        from tests.test_ripple import NaiveBook, hold

        def usd(v):
            return CurrencyValue("USD", "issU", v)

        def eur(v):
            return CurrencyValue("EUR", "issE", v)

        led = RippleLedger()
        for n in ("o1", "o2", "issE", "issU"):
            led.create_account(n, xrp_drops=10**9)
        hold(led, "o1", eur(0), 7)
        hold(led, "o2", usd(0), 10)
        led.create_offer("o1", eur(7), usd(10))
        led.create_offer("o2", usd(10), eur(7))
        assert worked_examples.holding(led, "o2", "EUR", "issE") == 7
        assert worked_examples.holding(led, "o1", "USD", "issU") == 10

        led2 = RippleLedger()
        for n in ("o1", "o2", "issE", "issU"):
            led2.create_account(n, xrp_drops=10**9)
        hold(led2, "o1", eur(0), 7)
        hold(led2, "o2", usd(0), 10)
        led2.create_offer("o1", eur(7), usd(9))
        led2.create_offer("o2", usd(10), eur(7))
        assert worked_examples.holding(led2, "o2", "EUR", "issE") == 7
        assert worked_examples.holding(led2, "o2", "USD", "issU") == 1  # keeps its 1 USD

        traders, stream = generate_offer_stream(OfferSpec(count=1000), seed=99)
        engine = RippleLedger()
        oracle = NaiveBook()
        engine.create_account("issuerX", xrp_drops=10**12)
        for t in traders:
            engine.create_account(t, xrp_drops=10**12)
            for cur in ("USD", "EUR"):
                hold(engine, t, CurrencyValue(cur, "issuerX", 0), 10**6)
                oracle.fund(t, cur, 10**6)
        for owner, gets, pays in stream:
            engine.create_offer(owner, gets, pays)
            oracle.submit(owner, gets, pays)
        engine_rows = [(g[0], p[0], seq, grem, prem)
                       for (g, p, seq, grem, prem) in engine.book_rows()]
        assert engine_rows == oracle.book_rows()
        for t in traders:
            for cur in ("USD", "EUR"):
                assert worked_examples.holding(engine, t, cur, "issuerX") == \
                    oracle.balances[(t, cur)]


def test_criterion_7_iota_codec_and_pipeline():
    with Budget(7, "tryte codec, key/address sizes, bundle shapes", 5.0):
        values = set()
        for t0 in (-1, 0, 1):
            for t1 in (-1, 0, 1):
                for t2 in (-1, 0, 1):
                    char = encode_trytes([t0, t1, t2])
                    assert decode_trytes(char) == [t0, t1, t2]
                    values.add(char)
        assert values == set(TRYTE_ALPHABET)
        rng = random.Random(7)
        for _ in range(10_000):
            s = "".join(rng.choice(TRYTE_ALPHABET)
                        for _ in range(rng.randint(0, 30)))
            assert encode_trytes(decode_trytes(s)) == s
        seed = "ACCEPT" + "9" * 75
        key = derive_private_key(derive_subseed(seed, 0), 2)
        assert len(key) == 4374
        assert len(derive_address(key)) == 81
        assert len(derive_address(key, with_checksum=True)) == 90
        left = build_bundle([("A1", 2, 60), ("A2", 2, 40)], [("A5", 100)])
        right = build_bundle([("A3", 2, 70)], [("A6", 30), ("A7", 40)])
        assert len(left.transactions) == 5 and len(right.transactions) == 4
        addr, level, amount = worked_examples.IOTA_TABLE_BUNDLE["input"]
        table = build_bundle([(addr, level, amount)],
                             worked_examples.IOTA_TABLE_BUNDLE["outputs"])
        assert table.value_sum() == 0


def test_criterion_8_tangle_consensus():
    with Budget(8, "double-spend invalidation, conservation, monotonicity", 30.0):
        state = TangleState({"a1": 100, "funder": 1000})
        g = GENESIS_HASH
        t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)],
                                       timestamp=1), (g, g))
        t2 = state.attach(build_bundle([("a1", 1, 100)], [("r2", 100)],
                                       timestamp=2), (g, g))
        x1 = state.attach_message("m1", (t2, t2), timestamp=3)
        x2 = state.attach_message("m2", (x1, t2), timestamp=4)
        x3 = state.attach_message("m3", (x2, x1), timestamp=5)
        state.apply_milestone(state.attach_message(state.coordinator, (t1, t1),
                                                   tag="MILESTONE", timestamp=6))
        assert t1 in state.confirmed
        assert {t2, x1, x2, x3} <= state.invalid
        assert len({state.transactions[h].bundle for h in state.invalid}) == 4

        # 100 random growth/milestone/snapshot cycles conserve total supply
        rng = random.Random(88)
        names = [f"ACC{i:02d}" for i in range(6)]
        st = TangleState({n: 10_000 for n in names})
        supply = sum(st.balances.values())
        spendable = dict(st.balances)
        confirmed_history: set[str] = set()
        for cycle in range(100):
            for _ in range(rng.randint(1, 4)):
                funded = [n for n in names if spendable.get(n, 0) > 1]
                if not funded:
                    break
                src = rng.choice(funded)
                amount = rng.randint(1, spendable[src])
                dst = rng.choice([n for n in names if n != src])
                keep = spendable[src] - amount
                outs = [(dst, amount)] + ([(src, keep)] if keep else [])
                bundle = build_bundle([(src, rng.choice((1, 2, 3)),
                                        spendable[src])], outs,
                                      timestamp=cycle)
                st.attach(bundle, st.select_tips("uniform-random",
                                                 rng.randrange(2**31)))
                spendable[src] = keep
                spendable[dst] = spendable.get(dst, 0) + amount
            st.issue_milestone(timestamp=cycle)
            assert sum(st.balances.values()) == supply
            assert confirmed_history <= st.confirmed  # monotone
            assert not (st.confirmed & st.invalid)
            for h in st.confirmed:  # closed over approved history
                tx = st.transactions[h]
                assert all(ref == GENESIS_HASH or ref in st.confirmed
                           for ref in (tx.trunk, tx.branch))
            confirmed_history = set(st.confirmed)
            if (cycle + 1) % 10 == 0:
                balances, st = st.snapshot()
                assert sum(balances.values()) == supply
                spendable = dict(st.balances)
                confirmed_history = set()


def test_criterion_9_privacy_overlays():
    with Budget(9, "Zcash five-type sweep and 11-member rings", 1.0):
        def expected_class(ins, outs):
            ti, zi = all(k == "t" for k in ins), all(k == "z" for k in ins)
            to, zo = all(k == "t" for k in outs), all(k == "z" for k in outs)
            if ti and to:
                return "public"
            if ti and zo:
                return "shielding"
            if zi and to:
                return "deshielding"
            if zi and zo:
                return "private"
            return "mixed"

        def kind_lists(max_len):
            for length in range(1, max_len + 1):
                for mask in range(2**length):
                    yield ["t" if mask & (1 << i) else "z"
                           for i in range(length)]

        seen = set()
        for ins in kind_lists(4):
            for outs in kind_lists(4):
                got = classify_zcash_tx(ins, outs)
                assert got == expected_class(ins, outs)
                seen.add(got)
        assert seen == {"public", "shielding", "deshielding", "private", "mixed"}

        pool = [(f"d{i}", i % 3) for i in range(60)]
        for seed in range(200):
            real = (f"r{seed}", 0)
            ring = build_ring_input(real, pool, rng_seed=seed)
            assert len(ring.members) == RING_SIZE == 11
            assert len(set(ring.members)) == 11
            assert real in ring.members
            assert ring.members[ring.real_index] == real


def test_criterion_10_synthetic_bias_replaces_chain_statistics():
    with Budget(10, "declared non-reproducibles replaced by bias check", 60.0):
        # Full-chain percentages (daily chainlet shares, N-coverage rates,
        # path-length statistics) need full-chain data and are out of scope;
        # the generator-parameter fidelity check stands in for them.
        led = generate_utxo(UtxoSpec(tx_count=10_000, split_bias=0.75), seed=10)
        snap = [c for c in snapshot_from_ledger(led) if c.cls != "coinbase"]
        split_share = 100.0 * sum(c.cls == "split" for c in snap) / len(snap)
        assert abs(split_share - 75.0) <= 2.0, split_share
