"""Privacy-coin overlays on the UTXO model
===========================================

Zcash transactions classify into five types from their t/z address
kinds; Monero hides the real spend among ten decoys in an 11-member
ring. Hidden amounts poison value-based graphs, which the builders
refuse loudly.
"""

from ledgergraph.utxo import (
    Block,
    Ledger,
    Output,
    UtxoTransaction,
    build_ring_input,
    classify_zcash_tx,
)
from ledgergraph.utxo_graphs import HiddenAmountError, build_address_graph

print("=== the five Zcash transaction types ===")
cases = [(["t"], ["t", "t"]), (["t"], ["z"]), (["z"], ["t"]),
         (["z"], ["z"]), (["t", "z"], ["t"])]
for ins, outs in cases:
    print(f"  {ins} -> {outs}: {classify_zcash_tx(ins, outs)}")

print("\n=== Monero ring construction ===")
decoy_pool = [(f"foreign{i}", 0) for i in range(25)]
ring = build_ring_input(("my_utxo", 0), decoy_pool, rng_seed=7)
print(f"  ring size: {len(ring.members)}")
print(f"  real spend hides at position {ring.real_index} "
      "(generator-side knowledge only)")
print(f"  members: {[m[0] for m in ring.members[:4]]}...")

print("\n=== RingCT-style hidden amounts are contagious ===")
ledger = Ledger()
cb = UtxoTransaction("g", (), (Output("g", 0, 1000, "a"),), coinbase=True)
ledger.apply_block(Block(0, (cb,), 1000))
cb1 = UtxoTransaction("c1", (), (Output("c1", 0, 1, "m"),), coinbase=True)
shielded = UtxoTransaction(
    "s", (("g", 0),),
    (Output("s", 0, 990, "b", amount_visible=False),))
ledger.apply_block(Block(1, (cb1, shielded), 1000))
try:
    build_address_graph(ledger, 1, 1)
except HiddenAmountError as exc:
    print(f"  address graph refused: {exc}")
