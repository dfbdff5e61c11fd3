"""Synthetic generators: validity, determinism, parameter fidelity."""

from collections import Counter

import pytest

from ledgergraph.chainlets import snapshot_from_ledger
from ledgergraph.generate import (
    AccountSpec,
    RippleSpec,
    TangleSpec,
    UtxoSpec,
    derive_rng,
    generate_account_txs,
    generate_tangle,
    generate_trust_graph,
    generate_utxo,
)
from ledgergraph.account import validate_nonce_order
from ledgergraph.utxo import INITIAL_SUBSIDY, dump_jsonl


def test_same_seed_same_bytes():
    a = "\n".join(dump_jsonl(generate_utxo(UtxoSpec(tx_count=200), 42)))
    b = "\n".join(dump_jsonl(generate_utxo(UtxoSpec(tx_count=200), 42)))
    assert a == b
    c = "\n".join(dump_jsonl(generate_utxo(UtxoSpec(tx_count=200), 43)))
    assert a != c


def test_labeled_streams_are_independent():
    assert derive_rng(1, "utxo").random() != derive_rng(1, "ripple").random()
    assert derive_rng(1, "utxo").random() == derive_rng(1, "utxo").random()


def test_full_split_bias_forces_all_splits():
    led = generate_utxo(UtxoSpec(tx_count=150, split_bias=1.0), seed=2)
    classes = {c.cls for c in snapshot_from_ledger(led) if c.cls != "coinbase"}
    assert classes == {"split"}


def test_zero_reuse_addresses_appear_at_most_twice():
    led = generate_utxo(UtxoSpec(tx_count=300, address_reuse_p=0.0), seed=3)
    appearances = Counter()
    for block in led.blocks:
        for tx in block.transactions:
            touched = {led.output(r).address for r in tx.inputs}
            touched |= {o.address for o in tx.outputs}
            for addr in touched:
                appearances[addr] += 1
    assert max(appearances.values()) <= 2


def test_generated_ledger_revalidates():
    from ledgergraph.utxo import load_jsonl
    led = generate_utxo(UtxoSpec(tx_count=120), seed=5)
    lines = list(dump_jsonl(led))
    led2 = load_jsonl(lines, subsidy=INITIAL_SUBSIDY)
    assert len(led2.transactions) == len(led.transactions)


def test_account_stream_nonce_valid():
    txs = generate_account_txs(AccountSpec(tx_count=400), seed=4)
    assert validate_nonce_order(txs) == []
    assert txs == generate_account_txs(AccountSpec(tx_count=400), seed=4)


def test_trust_graph_generator_positions_sum_zero():
    led = generate_trust_graph(RippleSpec(), seed=6)
    positions = led.net_positions("USD")
    assert sum(positions.values()) == 0
    assert led.states  # density 0.25 over 12 accounts yields lines


def test_tangle_generator_conserves_supply():
    state, totals = generate_tangle(TangleSpec(cycles=8), seed=8)
    assert len(set(totals)) == 1
    assert state.verify_dag()


@pytest.mark.parametrize("seed,digest,nonce", [
    (0, "01d47bc39e54c428ef94f30043df9600c333ccf49e8fc5bcf506f402a0e49b64", 35),
    (1, "4024c71a0f6c210b9aad536b198e4f69c61e1e6f4e56e1296eeaed89b54c0ae0", 31),
])
def test_tangle_generator_with_pow_matches_recorded_export(seed, digest, nonce):
    """Difficulty 2 runs the nonce search on every transaction, so the
    recorded export pins proof of work as well as the hashes."""
    import hashlib

    state, _totals = generate_tangle(TangleSpec(cycles=2, difficulty=2), seed)
    text = "\n".join(state.export_rows()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert max(tx.nonce for tx in state.transactions.values()) == nonce
