"""Tangle lifecycle: derive, bundle, attach, confirm, snapshot
===============================================================

One-time addresses derive from a seed through a ternary sponge; value
moves in zero-sum bundles; milestones confirm the reachable subtangle
and invalidate double-spends together with everything built on them.
"""

from ledgergraph.iota.bundles import build_bundle
from ledgergraph.iota.keys import derive_address, derive_private_key, derive_subseed
from ledgergraph.iota.tangle import GENESIS_HASH, TangleState

SEED = "DEMO" + "9" * 77

print("=== address derivation (security level 2) ===")
subseed = derive_subseed(SEED, index=0)
key = derive_private_key(subseed, level=2)
address = derive_address(key, with_checksum=True)
print(f"  subseed: {subseed[:24]}... (81 trytes)")
print(f"  private key: {len(key)} trytes = 54 segments of 81")
print(f"  address: {address[:24]}... ({len(address)} trytes with checksum)")

print("\n=== a bundle is an atomic zero-sum group ===")
bundle = build_bundle([("ALICEADDR", 2, 100)],
                      [("BOBADDR", 60), ("ALICECHANGE", 40)])
for tx in bundle.transactions:
    kind = "input" if tx.value < 0 else "output" if tx.value > 0 else "fragment"
    print(f"  index {tx.index[0]}/{tx.index[1]}: {kind:<8} value {tx.value}")

print("\n=== growth, double spend, milestone ===")
state = TangleState({"a1": 100, "whale": 10_000})
g = GENESIS_HASH
t1 = state.attach(build_bundle([("a1", 1, 100)], [("r1", 100)]), (g, g))
t2 = state.attach(build_bundle([("a1", 1, 100)], [("r2", 100)]), (g, g))
rider = state.attach_message("rider", (t2, t2))
print(f"  tips before milestone: {len(state.valid_tips())}")
milestone = state.attach_message(state.coordinator, (t1, t1), tag="MILESTONE")
state.apply_milestone(milestone)
print(f"  t1 confirmed: {t1 in state.confirmed}")
print(f"  t2 and its rider invalidated: "
      f"{t2 in state.invalid and rider in state.invalid}")
print(f"  balances: {dict(sorted(state.balances.items()))}")

print("\n=== promotion nudges a stuck transaction ===")
stuck = state.attach_message("slowpoke", state.select_tips("oldest-first"))
promo = state.promote(stuck)
print(f"  promotion {promo[:16]}... approves {stuck[:16]}...")

print("\n=== snapshot keeps balances, drops history ===")
total = sum(state.balances.values())
balances, fresh = state.snapshot()
print(f"  supply before and after: {total} == {sum(fresh.balances.values())}")
print(f"  transactions carried over: {len(fresh.transactions)}")
n = fresh.attach(build_bundle([("r1", 1, 100)], [("r3", 100)]),
                 (GENESIS_HASH, GENESIS_HASH))
print(f"  growth continues against the new genesis: {n[:16]}...")
