"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of its seed and size parameters: the
same arguments give the same records, byte for byte. The Ripple and
tangle scripts are generated here, with their own random streams, so
the program under test only ever sees the finished script.
"""

from __future__ import annotations

import random

SCRIPT_CURRENCY = "USD"
OFFER_CURRENCIES = ("EUR", "JPY")
GATEWAY = "gw"


def utxo_jsonl(seed: int, tx_count: int) -> list[str]:
    """A generated UTXO ledger in ingestion JSONL, one transaction a line."""
    from ledgergraph.generate import UtxoSpec, generate_utxo
    from ledgergraph.utxo import dump_jsonl

    return list(dump_jsonl(generate_utxo(UtxoSpec(tx_count=tx_count), seed)))


def ripple_script(seed: int, communities: int, community_size: int,
                  lines_per_account: int, payments: int, partial_share: float,
                  offers: int, traders: int) -> list[dict]:
    """Accounts, a USD trust network, gateway IOUs for traders, then
    payments and crossing EUR/JPY offers interleaved at random.

    The accounts form separate communities; inside one, every account
    extends trust to lines_per_account random others, and each payment
    stays inside one community. The cost of exhaustive path search
    depends mostly on the network's shape, so one random network made
    replay time vary by a fifth between seeds; averaged over independent
    communities it varies far less. Every trust line ripples (no_ripple
    false) and starts partly used, so path search meets both exhausted
    and open hops. Some payments exceed every path's capacity; those end
    in ledger rejections (no-path), which are semantics, not failures."""
    rng = random.Random(f"bench-ripple:{seed}")
    groups = [[f"r{c:02d}{i:02d}" for i in range(community_size)]
              for c in range(communities)]
    names = [n for group in groups for n in group]
    script: list[dict] = [{"op": "create_account", "address": GATEWAY,
                           "xrp": 10**12}]
    script += [{"op": "create_account", "address": n, "xrp": 10**10}
               for n in names]
    for group in groups:
        for lender in group:
            for borrower in sorted(rng.sample([n for n in group if n != lender],
                                              lines_per_account)):
                limit = rng.randint(50, 1000)
                script.append({"op": "set_trust", "lender": lender,
                               "borrower": borrower,
                               "currency": SCRIPT_CURRENCY, "limit": limit,
                               "no_ripple": False})
                used = rng.randint(0, limit // 2)
                if used:
                    script.append({"op": "adjust_debt", "lender": lender,
                                   "borrower": borrower,
                                   "currency": SCRIPT_CURRENCY,
                                   "amount": used})
    market = names[:traders]
    for trader in market:
        for currency in OFFER_CURRENCIES:
            script.append({"op": "set_trust", "lender": trader,
                           "borrower": GATEWAY, "currency": currency,
                           "limit": 10**9, "no_ripple": True})
            script.append({"op": "adjust_debt", "lender": trader,
                           "borrower": GATEWAY, "currency": currency,
                           "amount": 10**7})
    kinds = ["pay"] * payments + ["offer"] * offers
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "pay":
            sender, dest = rng.sample(rng.choice(groups), 2)
            cmd = {"op": "pay", "account": sender, "destination": dest,
                   "amount": {"currency": SCRIPT_CURRENCY,
                              "value": rng.randint(1, 200)}}
            if rng.random() < partial_share:
                cmd["partial"] = True
            script.append(cmd)
        else:
            gets, pays = rng.sample(OFFER_CURRENCIES, 2)
            script.append({
                "op": "offer", "owner": rng.choice(market),
                "gets": {"currency": gets, "issuer": GATEWAY,
                         "value": rng.randint(5, 50)},
                "pays": {"currency": pays, "issuer": GATEWAY,
                         "value": rng.randint(5, 50)}})
    return script


def tangle_script(seed: int, addresses: int, funding: int, bundles: int,
                  conflict_share: float, messages_per_bundle: int,
                  milestone_every: int) -> tuple[dict[str, int], list[dict]]:
    """Genesis balances and an attach/milestone script for the tangle.

    Each value bundle spends one address's whole confirmed balance and
    returns the remainder to it. Security levels 1, 2 and 3 occur equally
    often and a fixed share of bundles is followed at once by a
    conflicting bundle that spends the same funds again (same outputs,
    different tag); the seed only orders them, so the hashing work varies
    little between seeds. Exactly one bundle of a conflicting pair can
    confirm, and the generator's view of confirmed balances stays exact
    whichever it is. An address takes part in at most one bundle between
    milestones, so honest bundles are always fundable and a conflicting
    one never is. Tips are left to the replay's default (oldest first),
    so later transactions approve the conflicting ones and invalidation
    has approvers to reach."""
    rng = random.Random(f"bench-tangle:{seed}")
    names = [f"BENCHADDR{i:02d}" for i in range(addresses)]
    genesis = {n: funding for n in names}
    balance = dict(genesis)
    moves: list[tuple[str, str, int]] = []  # unconfirmed (src, dst, amount)
    script: list[dict] = []
    levels = [1 + b % 3 for b in range(bundles)]
    rng.shuffle(levels)
    conflicts = set(rng.sample(range(bundles),
                               round(conflict_share * bundles)))

    def attach(cmd: dict) -> None:
        cmd["timestamp"] = len(script) + 1
        script.append(cmd)

    for b in range(bundles):
        busy = {a for src, dst, _v in moves for a in (src, dst)}
        idle = [n for n in names if n not in busy]
        src = rng.choice([n for n in idle if balance[n] > 1])
        dst = rng.choice([n for n in idle if n != src])
        total = balance[src]
        amount = rng.randint(1, total - 1)
        bundle = {"op": "attach_bundle",
                  "inputs": [{"address": src, "level": levels[b],
                              "amount": total}],
                  "outputs": [{"address": dst, "amount": amount},
                              {"address": src, "amount": total - amount}],
                  "tag": "BENCH"}
        attach(dict(bundle))
        if b in conflicts:
            attach(dict(bundle, tag="DOUBLESPEND"))
        moves.append((src, dst, amount))
        for m in range(messages_per_bundle):
            attach({"op": "attach_message", "address": "BENCHMESSAGE",
                    "tag": "MSG", "data": f"B{b}M{m}"})
        if (b + 1) % milestone_every == 0 or b == bundles - 1:
            attach({"op": "milestone"})
            for src_addr, dst_addr, value in moves:
                balance[src_addr] -= value
                balance[dst_addr] += value
            moves.clear()
    return genesis, script
