"""Config presets, optional flags and smaller contract corners across
the modules."""

from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, strategies as st

from ledgergraph import scenario
from ledgergraph.core import LedgerError
from ledgergraph.ripple import (
    CurrencyValue,
    PaymentSpec,
    RippleLedger,
    fill_amounts,
)
from ledgergraph.utxo import (
    Block,
    INITIAL_SUBSIDY,
    Ledger,
    Output,
    UnshieldedCoinbaseError,
    UtxoTransaction,
)
import worked_examples


def tx(txid, inputs, outputs, coinbase=False, output_kinds=None):
    outs = tuple(Output(txid, i, v, a) for i, (a, v) in enumerate(outputs))
    return UtxoTransaction(txid, tuple(inputs), outs, coinbase=coinbase,
                           output_kinds=output_kinds)


# -- subsidy schedule and supply ---------------------------------------------------

def halving_subsidy(height, interval=2):
    """A reward that halves every `interval` blocks."""
    return INITIAL_SUBSIDY >> (height // interval)


def test_supply_monotone_and_bounded():
    led = Ledger()
    supply_seen = 0
    subsidies = fees_total = 0
    for h in range(4):
        subsidy = halving_subsidy(h)
        cb = tx(f"c{h}", [], [(f"m{h}", subsidy - h)], coinbase=True)
        led.apply_block(Block(h, (cb,), subsidy))
        subsidies += subsidy
        assert led.total_supply() >= supply_seen  # never shrinks
        supply_seen = led.total_supply()
        assert supply_seen <= subsidies + fees_total
    assert led.destroyed == 0 + 1 + 2 + 3


def test_zcash_coinbase_shielding_rule_flag():
    led = Ledger()  # a coinbase that names its output kinds must be all z
    shielded_cb = tx("c", [], [("z1", 10)], coinbase=True, output_kinds=("z",))
    led.validate_coinbase(shielded_cb, 0, 10)
    public_cb = tx("c2", [], [("t1", 10)], coinbase=True, output_kinds=("t",))
    with pytest.raises(UnshieldedCoinbaseError):
        led.validate_coinbase(public_cb, 0, 10)


# -- ripple corners -------------------------------------------------------------------

def test_issued_currency_check_cash():
    led = RippleLedger()
    for n in ("s", "r", "gw"):
        led.create_account(n, xrp_drops=10**9)
    led.set_trust("s", "gw", "USD", 1000, no_ripple=False)
    led.adjust_line_debt("s", "gw", "USD", 100)  # s holds 100 USD.gw
    check = led.write_check("s", "r", CurrencyValue("USD", "gw", 80))
    assert led.cash_check(check.check_id, 30) == 30
    assert worked_examples.holding(led, "s", "USD", "gw") == 70
    assert worked_examples.holding(led, "r", "USD", "gw") == 30


def test_cancel_offer_removes_from_book():
    led = RippleLedger()
    led.create_account("m", xrp_drops=10**9)
    led.create_account("issE", xrp_drops=10**9)
    led.set_trust("m", "issE", "EUR", 1000)
    led.adjust_line_debt("m", "issE", "EUR", 50)  # m holds 50 EUR.issE
    result = led.create_offer("m", CurrencyValue("EUR", "issE", 7),
                              CurrencyValue("USD", "issU", 10))
    assert led.book_rows()
    led.cancel_offer("m", result["sequence"])
    assert led.book_rows() == []


def test_direct_xrp_cannot_be_partial():
    led = RippleLedger()
    led.create_account("a", xrp_drops=10**9)
    led.create_account("b", xrp_drops=10**9)
    with pytest.raises(LedgerError):
        led.pay(PaymentSpec("a", "b", CurrencyValue("XRP", None, 10),
                            tf_partial_payment=True))


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6),
       st.integers(1, 10**6), st.integers(0, 10**6))
def test_fill_arithmetic_never_cheats_the_maker(gets, pays, wants, budget, extra):
    rate = Fraction(pays, gets)
    g, p = fill_amounts(gets, rate, wants, budget)
    assert g == max(0, min(gets, wants, budget * gets // pays))
    if g:
        assert p == ceil(g * rate) <= budget
        assert Fraction(p, g) >= rate  # maker never paid below its rate
        assert g <= gets and g <= wants


# -- replay corners -----------------------------------------------------------------------

def test_empty_script_replays_to_unchanged_state():
    led, log = scenario.replay_ripple([])
    assert log == [] and led.accounts == {}
    state, log2 = scenario.replay_tangle([], genesis_balances={"a": 5})
    assert log2 == [] and state.balances == {"a": 5}


def test_nonce_out_of_order_detected():
    from ledgergraph.account import AccountTx, validate_nonce_order
    txs = [
        AccountTx(sender="a", to="b", amount_wei=1, nonce=1,
                  block_height=5, block_index=1),
        AccountTx(sender="a", to="b", amount_wei=1, nonce=0,
                  block_height=6, block_index=1),
    ]
    kinds = sorted(p.kind for p in validate_nonce_order(txs))
    assert "out-of-order" in kinds


def test_send_max_issuer_must_be_second():
    led = RippleLedger()
    for n in ("s", "gw1", "gw2", "d"):
        led.create_account(n, xrp_drops=10**9)
    for gw in ("gw1", "gw2"):
        led.set_trust(gw, "s", "USD", 100, no_ripple=False)
        led.set_trust("d", gw, "USD", 100, no_ripple=False)
    spec = PaymentSpec("s", "d", CurrencyValue("USD", None, 10),
                       send_max=CurrencyValue("USD", "gw1", 10))
    assert led.find_paths(spec) == [("s", "gw1", "d")]


@given(st.lists(st.tuples(st.integers(1, 200), st.integers(0, 150)),
                min_size=1, max_size=6),
       st.integers(1, 300))
def test_partial_delivery_equals_min_capacity(hops, requested):
    # chain s -> i1 -> ... -> d with fee-free intermediaries
    led = RippleLedger()
    names = [f"n{k}" for k in range(len(hops) + 1)]
    for n in names:
        led.create_account(n, xrp_drops=10**9)
    capacities = []
    for k, (limit, used) in enumerate(hops):
        lender, borrower = names[k + 1], names[k]
        led.set_trust(lender, borrower, "USD", limit, no_ripple=False)
        used = min(used, limit)
        if used:
            led.adjust_line_debt(lender, borrower, "USD", used)
        capacities.append(limit - used)
    path = tuple(names)
    deliverable = led.deliverable(path, requested, "USD")
    assert deliverable == min([requested] + capacities)
    assert deliverable <= requested


def test_hidden_amounts_skippable_in_amount_matrix():
    from ledgergraph.chainlets import (
        FirstOrderChainlet,
        amount_matrix,
        extreme_chainlet_report,
    )
    from ledgergraph.utxo_graphs import HiddenAmountError
    snap = [
        FirstOrderChainlet("open", 1, 1, "transition", 500),
        FirstOrderChainlet("ringct", 1, 1, "transition", 0,
                           amounts_visible=False),
    ]
    with pytest.raises(HiddenAmountError):
        amount_matrix(snap, 2)
    report = extreme_chainlet_report(
        [FirstOrderChainlet("big", 1, 30, "split", 0, amounts_visible=False)], 20)
    assert report[0]["amounts_visible"] is False


def test_identical_reattach_rejected():
    from ledgergraph.iota.bundles import build_bundle
    from ledgergraph.iota.tangle import GENESIS_HASH, TangleState
    state = TangleState({"a": 10})
    bundle = build_bundle([("a", 1, 10)], [("b", 10)], timestamp=4)
    state.attach(bundle, (GENESIS_HASH, GENESIS_HASH))
    clone = build_bundle([("a", 1, 10)], [("b", 10)], timestamp=4)
    with pytest.raises(LedgerError):
        state.attach(clone, (GENESIS_HASH, GENESIS_HASH))
    # changing the timestamp changes every hash, so this one lands
    later = build_bundle([("a", 1, 10)], [("b", 10)], timestamp=5)
    state.attach(later, (GENESIS_HASH, GENESIS_HASH))


def test_escrow_requires_existing_receiver():
    led = RippleLedger()
    led.create_account("s", xrp_drops=10**9)
    with pytest.raises(LedgerError):
        led.create_escrow("s", "ghost", 1000, release_time=1)


def test_cli_malformed_script_is_validation_error(tmp_path, capsys):
    from ledgergraph.cli import main
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["ripple", "pay", str(bad), "--keep-going"]) == 2
    capsys.readouterr()


def test_hypergraph_json_export():
    import json as _json
    from ledgergraph.account import build_trace_hypergraph
    from ledgergraph.core import export_hypergraph
    hg = build_trace_hypergraph(worked_examples.trace_scenario())
    payload = _json.loads(export_hypergraph(hg, "json").decode())
    assert {e["label"] for e in payload} == {"tx1", "tx3", "tx4"}
