"""Chainlets: counting transactions by shape
=============================================

A chainlet C(x, y) is a transaction with x inputs and y outputs. This
demo reproduces the worked occurrence/amount matrices, folds them down
to a smaller boundary, and reports extreme chainlets.
"""

import os

import numpy as np

from ledgergraph.chainlets import (
    aggregate_timeseries,
    build_matrices,
    extract_k_chainlets,
    extreme_chainlet_report,
    fold_matrix,
    snapshot_from_ledger,
)
from ledgergraph.core import read_lines
from ledgergraph.utxo import COIN, load_jsonl

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_ledger(name, subsidy):
    """A committed example ledger, validated with a flat block subsidy."""
    return load_jsonl(read_lines(os.path.join(FIXTURES, name)), subsidy=subsidy)


ledger = fixture_ledger("amount_network.jsonl", 12 * COIN)
snapshot = snapshot_from_ledger(ledger, 1, 1)

print("=== first-order census ===")
for c in snapshot:
    print(f"  {c.txid}: C({c.x},{c.y}) {c.cls:<10} moving "
          f"{c.output_total / COIN:.2f} coins")

mats = build_matrices(snapshot, 3)
print("\n=== occurrence matrix, N=3 ===")
print(np.array(mats.occurrence))
print("=== amount matrix in coins ===")
print(np.array(mats.amount) / COIN)

print("\n=== folding the boundary from 3 to 2 ===")
bigger = fixture_ledger("fold_example.jsonl", 20 * COIN)
snap2 = snapshot_from_ledger(bigger, 1, 1)
wide = build_matrices(snap2, 3)
print("N=3 occurrence:")
print(np.array(wide.occurrence))
print("folded to N=2 (boundary row/column absorb everything beyond):")
print(np.array(fold_matrix(wide.occurrence, 2)))
print("amounts, folded, in coins:")
print(np.array(fold_matrix(wide.amount, 2)) / COIN)

print("\n=== k=2 chainlets: connected transaction pairs ===")
for k in extract_k_chainlets(fixture_ledger("six_tx_network.jsonl", 6 * COIN),
                             2, 1, 2):
    a, b = k.spend_direction
    print(f"  {k.tx_nodes}: {a} funds {b}")

print("\n=== extreme chainlets at N=20 ===")
from ledgergraph.chainlets import FirstOrderChainlet
crowd = snapshot + [
    FirstOrderChainlet("whale_sell", 2, 25, "split", 900 * COIN),
    FirstOrderChainlet("whale_buy", 25, 2, "merge", 700 * COIN),
]
for row in extreme_chainlet_report(crowd, 20):
    print(f"  {row['txid']}: C({row['x']},{row['y']}) -> {row['pattern']}")

print("\n=== aggregate class shares per window ===")
merge, transition, split = aggregate_timeseries([snapshot])[0]
print(f"  merge {merge:.1f}% / transition {transition:.1f}% / split {split:.1f}%")
