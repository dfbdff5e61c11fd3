"""UTXO validation, block application, lineage, privacy-coin overlays."""

import json

import pytest

from ledgergraph.core import BadRecordError
from ledgergraph.utxo import (
    Block,
    DoubleSpendError,
    EmptySideError,
    ExcessiveRewardError,
    InsufficientDecoysError,
    Ledger,
    MissingOutputError,
    Output,
    OverspendError,
    RING_SIZE,
    UtxoTransaction,
    build_ring_input,
    classify_zcash_tx,
    dump_jsonl,
    load_jsonl,
    trace_lineage,
)

import worked_examples


def tx(txid, inputs, outputs, coinbase=False):
    outs = tuple(Output(txid, i, v, a) for i, (a, v) in enumerate(outputs))
    return UtxoTransaction(txid, tuple(inputs), outs, coinbase=coinbase)


def funded_ledger(amounts, subsidy=10**10):
    led = Ledger()
    g = tx("g", [], [(f"src{i}", v) for i, v in enumerate(amounts)], coinbase=True)
    led.apply_block(Block(0, (g,), subsidy))
    return led


# -- validate_transaction ----------------------------------------------------

def test_spending_fee_from_coinbase_output():
    # 1B satoshi output spent into 500M + 495M leaves a 5M fee
    led = funded_ledger([1_000_000_000])
    t2 = tx("t2", [("g", 0)], [("a3", 500_000_000), ("a4", 495_000_000)])
    assert led.validate_transaction(t2) == 5_000_000


def test_zero_fee_is_legal():
    led = funded_ledger([777])
    t = tx("t", [("g", 0)], [("a", 777)])
    assert led.validate_transaction(t) == 0


def test_overspend_rejected():
    led = funded_ledger([100])
    with pytest.raises(OverspendError):
        led.validate_transaction(tx("t", [("g", 0)], [("a", 101)]))


def test_double_spend_across_blocks_rejected():
    led = funded_ledger([500, 500])
    cb1 = tx("c1", [], [("m1", 10**10)], coinbase=True)
    t1 = tx("t1", [("g", 0)], [("a", 400)])
    led.apply_block(Block(1, (cb1, t1), 10**10))
    again = tx("t2", [("g", 0)], [("b", 400)])
    with pytest.raises(DoubleSpendError):
        led.validate_transaction(again)


def test_missing_output_rejected():
    led = funded_ledger([500])
    with pytest.raises(MissingOutputError):
        led.validate_transaction(tx("t", [("nope", 0)], [("a", 1)]))


@pytest.mark.parametrize("index", [-1, 1])
def test_index_outside_the_creating_tx_is_missing(index):
    led = funded_ledger([500])  # ("g", 0) is its one output
    ref = ("g", index)
    with pytest.raises(MissingOutputError):
        led.validate_transaction(tx("t", [ref], [("a", 1)]))
    with pytest.raises(MissingOutputError):
        led.output(ref)
    with pytest.raises(MissingOutputError):
        led.creating_tx(ref)


# -- validate_coinbase ---------------------------------------------------------

def test_coinbase_may_claim_subsidy_plus_fees():
    led = Ledger()
    cb = tx("c", [], [("m", 1_270_000_000)], coinbase=True)
    claimed = led.validate_coinbase(cb, 20_000_000, 1_250_000_000)
    assert claimed == 1_270_000_000


def test_coinbase_over_cap_rejected():
    led = Ledger()
    cb = tx("c", [], [("m", 1_270_000_001)], coinbase=True)
    with pytest.raises(ExcessiveRewardError):
        led.validate_coinbase(cb, 20_000_000, 1_250_000_000)


def test_underclaiming_destroys_supply():
    led = funded_ledger([1000], subsidy=1000)
    cb = tx("c1", [], [("m", 995)], coinbase=True)
    led.apply_block(Block(1, (cb,), 1000))
    assert led.destroyed == 5


# -- apply_block ---------------------------------------------------------------

def test_intra_block_spend_of_earlier_tx():
    led = funded_ledger([1000])
    cb = tx("c1", [], [("m", 10**10)], coinbase=True)
    tx_x = tx("x", [("g", 0)], [("ax", 900)])
    tx_y = tx("y", [("x", 0)], [("ay", 850)])
    led.apply_block(Block(1, (cb, tx_x, tx_y), 10**10))
    assert ("x", 0) not in led.utxo
    assert led.output(("x", 0)) == tx_x.outputs[0]
    assert ("y", 0) in led.utxo


def test_reversed_intra_block_order_rejected_atomically():
    led = funded_ledger([1000])
    before_utxo = dict(led.utxo)
    cb = tx("c1", [], [("m", 10**10)], coinbase=True)
    tx_x = tx("x", [("g", 0)], [("ax", 900)])
    tx_y = tx("y", [("x", 0)], [("ay", 850)])
    with pytest.raises(MissingOutputError):
        led.apply_block(Block(1, (cb, tx_y, tx_x), 10**10))
    assert led.utxo == before_utxo and led.tip_height == 0


def test_coinbase_only_block_accepted():
    led = funded_ledger([1000])
    cb = tx("c1", [], [("m", 42)], coinbase=True)
    led.apply_block(Block(1, (cb,), 10**10))
    assert led.tip_height == 1


def test_block_must_extend_tip():
    led = funded_ledger([1000])
    cb = tx("c1", [], [("m", 42)], coinbase=True)
    with pytest.raises(Exception):
        led.apply_block(Block(5, (cb,), 10**10))


def test_block_structure_invariants():
    with pytest.raises(BadRecordError):
        Block(0, (tx("t", [("g", 0)], [("a", 1)]),), 0)


# -- lineage --------------------------------------------------------------------

def brute_force_lineage(ref, ledger):
    """Independent oracle: exhaustive backward DFS."""
    tx_ = ledger.creating_tx(ref)
    if tx_.coinbase:
        return [(ref,)]
    paths = []
    for parent in tx_.inputs:
        for p in brute_force_lineage(parent, ledger):
            paths.append(p + (ref,))
    return sorted(paths)


def test_lineage_two_paths_merge():
    led = worked_examples.lineage_ledger()
    paths = trace_lineage(("t3", 0), led)
    assert paths == [(("g", 0), ("t2", 0), ("t3", 0)), (("g", 1), ("t3", 0))]
    assert paths == brute_force_lineage(("t3", 0), led)


def test_lineage_of_coinbase_output_is_single_trivial_path():
    led = worked_examples.lineage_ledger()
    assert trace_lineage(("g", 0), led) == [(("g", 0),)]


def test_lineage_three_deep_chain():
    led = funded_ledger([1000])
    cb = tx("c1", [], [("m", 10**10)], coinbase=True)
    a = tx("a", [("g", 0)], [("x1", 900)])
    b = tx("b", [("a", 0)], [("x2", 800)])
    c = tx("c", [("b", 0)], [("x3", 700)])
    led.apply_block(Block(1, (cb, a, b, c), 10**10))
    paths = trace_lineage(("c", 0), led)
    assert paths == brute_force_lineage(("c", 0), led)
    assert len(paths) == 1
    assert len(paths[0]) - 1 == 3  # three hops back to the coinbase


def test_lineage_of_a_long_spend_chain():
    # deeper than the interpreter's default recursion limit of 1,000
    led = funded_ledger([1000])
    chain = [tx("s0", [("g", 0)], [("x", 1000)])]
    for i in range(1, 1500):
        chain.append(tx(f"s{i}", [(f"s{i - 1}", 0)], [("x", 1000)]))
    cb = tx("c1", [], [("m", 10**10)], coinbase=True)
    led.apply_block(Block(1, (cb, *chain), 10**10))
    path = (("g", 0),) + tuple((f"s{i}", 0) for i in range(1500))
    assert trace_lineage(("s1499", 0), led) == [path]
    assert len(path) == 1501


def test_lineage_every_path_ends_at_coinbase():
    led = worked_examples.six_tx_network()
    for ref in list(led.utxo):
        for path in trace_lineage(ref, led):
            assert led.creating_tx(path[0]).coinbase


def test_lineage_missing_output():
    led = worked_examples.lineage_ledger()
    with pytest.raises(MissingOutputError):
        trace_lineage(("zzz", 9), led)


# -- UTXO set equals brute force ---------------------------------------------------

def brute_force_utxo(ledger):
    created, consumed = {}, set()
    for block in ledger.blocks:
        for t in block.transactions:
            for ref in t.inputs:
                consumed.add(ref)
            for o in t.outputs:
                created[o.ref] = o.amount
    return {r: v for r, v in created.items() if r not in consumed}


def test_utxo_set_matches_brute_force_on_fixture():
    led = worked_examples.six_tx_network()
    assert {r: o.amount for r, o in led.utxo.items()} == brute_force_utxo(led)


# -- Zcash classification ------------------------------------------------------------

@pytest.mark.parametrize("ins,outs,expected", [
    (["t"], ["t", "t"], "public"),
    (["t", "t"], ["z"], "shielding"),
    (["z"], ["t"], "deshielding"),
    (["z"], ["z"], "private"),
    (["t", "z"], ["t"], "mixed"),
    (["t"], ["t", "z"], "mixed"),
])
def test_zcash_classification(ins, outs, expected):
    assert classify_zcash_tx(ins, outs) == expected


def test_zcash_empty_side_rejected():
    with pytest.raises(Exception):
        classify_zcash_tx([], ["t"])


@pytest.mark.parametrize("ins, outs", [([], ["t"]), (["z"], [])])
def test_zcash_empty_side_has_its_own_code(ins, outs):
    with pytest.raises(EmptySideError) as exc:
        classify_zcash_tx(ins, outs)
    assert exc.value.code == "empty-side"


# -- Monero rings ---------------------------------------------------------------------

def test_ring_from_minimal_pool():
    pool = [(f"d{i}", 0) for i in range(10)]
    ring = build_ring_input(("real", 0), pool, rng_seed=1)
    assert len(ring.members) == RING_SIZE
    assert ("real", 0) in ring.members
    assert ring.members[ring.real_index] == ("real", 0)


def test_ring_insufficient_decoys():
    with pytest.raises(InsufficientDecoysError):
        build_ring_input(("real", 0), [(f"d{i}", 0) for i in range(9)], 1)


def test_ring_deterministic_under_seed():
    pool = [(f"d{i}", 0) for i in range(40)]
    r1 = build_ring_input(("real", 0), pool, rng_seed=99)
    r2 = build_ring_input(("real", 0), pool, rng_seed=99)
    assert r1 == r2
    assert build_ring_input(("real", 0), pool, rng_seed=100) != r1


# -- ingestion round trip ----------------------------------------------------------------

def test_jsonl_round_trip_keeps_kinds():
    lines = [json.dumps({"id": "c", "block": 0, "coinbase": True, "kinds": {"out": ["z"]},
                         "outputs": [{"amount": 5, "address": "z1"}]}),
             json.dumps({"id": "t", "block": 0, "kinds": {"in": ["z"], "out": ["t", "z"]},
                         "inputs": [{"txid": "c", "index": 0}],
                         "outputs": [{"amount": 2, "address": "t1"},
                                     {"amount": 3, "address": "z2"}]})]
    dumped = list(dump_jsonl(load_jsonl(lines, subsidy=5)))
    assert [json.loads(line)["kinds"] for line in dumped] == [
        {"in": [], "out": ["z"]}, {"in": ["z"], "out": ["t", "z"]}]
    assert list(dump_jsonl(load_jsonl(dumped, subsidy=5))) == dumped


def test_jsonl_round_trip():
    led = worked_examples.six_tx_network()
    lines = list(dump_jsonl(led))
    led2 = load_jsonl(lines, subsidy=6 * worked_examples.COIN)
    assert list(dump_jsonl(led2)) == lines
    assert {r: o.amount for r, o in led2.utxo.items()} == \
        {r: o.amount for r, o in led.utxo.items()}
