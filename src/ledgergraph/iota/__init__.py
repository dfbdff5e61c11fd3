"""DAG-ledger mechanics: balanced-ternary codec, seed-to-address
derivation over one ternary sponge, bundles with signature fragmentation,
and tangle growth with milestones, promotion and snapshots."""
