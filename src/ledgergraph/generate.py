"""Deterministic synthetic ledger generation for property testing.

One seed drives everything; per-module streams are split by label
(random.Random over f"{seed}:{label}") so adding a generator never
perturbs another's stream. Generated ledgers are valid by construction
and must pass their chain's validators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .utxo import (INITIAL_SUBSIDY, Block, Ledger, Output, OutputRef,
                   UtxoTransaction)

__all__ = [
    "derive_rng",
    "UtxoSpec",
    "generate_utxo",
    "AccountSpec",
    "generate_account_txs",
    "RippleSpec",
    "generate_trust_graph",
    "TangleSpec",
    "generate_tangle",
]


def derive_rng(seed: int, label: str) -> random.Random:
    """Labeled stream splitting from the run seed."""
    return random.Random(f"{seed}:{label}")


# --------------------------------------------------------------------------
# UTXO

FEE_MIN = 1_000
FEE_MAX = 100_000
COINBASE_OUTPUTS = 5
MAX_DIM = 5  # cap on the smaller transaction side


@dataclass(frozen=True)
class UtxoSpec:
    tx_count: int = 1000
    txs_per_block: int = 50
    split_bias: float = 0.75  # remainder splits evenly into merge/transition
    address_reuse_p: float = 0.0


class _AddressPool:
    def __init__(self, rng: random.Random, reuse_p: float):
        self.rng = rng
        self.reuse_p = reuse_p
        self.counter = 0
        self.used: list[str] = []

    def next(self) -> str:
        if self.used and self.rng.random() < self.reuse_p:
            return self.rng.choice(self.used)
        self.counter += 1
        addr = f"addr{self.counter:08d}"
        self.used.append(addr)
        return addr


def _partition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split total into parts random shares, each at least 10% of the even
    share (keeps long spend chains from decaying into dust too fast).
    make_tx keeps total >= parts whenever parts > 1."""
    if parts == 1:
        return [total]
    floor_share = max(1, total // (parts * 10))
    pool = total - floor_share * parts
    weights = [rng.randint(1, 1000) for _ in range(parts)]
    wsum = sum(weights)
    out = [floor_share + (pool * w) // wsum for w in weights]
    out[-1] += total - sum(out)
    return out


def generate_utxo(spec: UtxoSpec, seed: int) -> Ledger:
    """Random valid UTXO ledger; the split/merge/transition mix follows
    split_bias (the rest splits evenly between merge and transition)."""
    rng = derive_rng(seed, "utxo")
    addresses = _AddressPool(rng, spec.address_reuse_p)
    ledger = Ledger()

    pool: list[tuple[OutputRef, int]] = []  # (ref, amount)

    def draw_inputs(count: int) -> list[tuple[OutputRef, int]]:
        picks = []
        for _ in range(count):
            idx = rng.randrange(len(pool))
            pool[idx], pool[-1] = pool[-1], pool[idx]
            picks.append(pool.pop())
        return picks

    def make_tx(txid: str, height: int) -> tuple[UtxoTransaction, int]:
        roll = rng.random()
        if roll < spec.split_bias:
            cls = "split"
        elif roll < spec.split_bias + (1 - spec.split_bias) / 2:
            cls = "merge"
        else:
            cls = "transition"
        small = rng.randint(1, MAX_DIM)
        if cls == "split":
            x, y = small, small + rng.randint(1, MAX_DIM)
        elif cls == "merge":
            y, x = small, small + rng.randint(1, MAX_DIM)
        else:
            x = y = small
        x = min(x, len(pool))  # the pool never empties: each tx adds outputs
        if cls == "transition":
            y = x
        elif cls == "merge":
            y = min(y, max(1, x - 1))
        else:
            y = max(y, x + 1)
        picks = draw_inputs(x)
        in_sum = sum(a for _r, a in picks)
        fee = rng.randint(FEE_MIN, min(FEE_MAX, max(FEE_MIN, in_sum // 10)))
        fee = min(fee, max(0, in_sum - y))  # never starve the outputs
        if in_sum < y:
            # all-dust inputs; shrink the fan-out so every output stays >= 1
            # (vanishingly rare, drifts one tx's class)
            y, fee = max(1, in_sum), 0
        out_total = in_sum - fee
        amounts = _partition(rng, out_total, y)
        outputs = tuple(
            Output(txid, i, a, addresses.next())
            for i, a in enumerate(amounts)
        )
        return UtxoTransaction(txid, tuple(r for r, _a in picks), outputs,
                               block_height=height), fee

    height = 0
    genesis_outs = tuple(
        Output("gen0", i, INITIAL_SUBSIDY // 64, addresses.next())
        for i in range(64)
    )
    genesis = UtxoTransaction("gen0", (), genesis_outs, coinbase=True,
                              block_height=0)
    ledger.apply_block(Block(0, (genesis,), INITIAL_SUBSIDY))
    pool.extend((o.ref, o.amount) for o in genesis_outs)

    made = 0
    while made < spec.tx_count:
        height += 1
        batch = min(spec.txs_per_block, spec.tx_count - made)
        txs, fee_sum = [], 0
        for _ in range(batch):
            tx, fee = make_tx(f"tx{made + len(txs):08d}", height)
            txs.append(tx)
            fee_sum += fee
            # same-block chaining: fresh outputs are spendable immediately
            pool.extend((o.ref, o.amount) for o in tx.outputs)
        cb_id = f"cb{height:08d}"
        share = INITIAL_SUBSIDY // COINBASE_OUTPUTS
        cb_outs = tuple(
            Output(cb_id, i, share + (fee_sum if i == 0 else 0), addresses.next())
            for i in range(COINBASE_OUTPUTS)
        )
        coinbase = UtxoTransaction(cb_id, (), cb_outs, coinbase=True,
                                   block_height=height)
        ledger.apply_block(Block(height, (coinbase, *txs), INITIAL_SUBSIDY))
        pool.extend((o.ref, o.amount) for o in cb_outs)
        made += batch
    return ledger


# --------------------------------------------------------------------------
# Account

ACCOUNTS = 20
ACCOUNT_TXS_PER_BLOCK = 25
NULL_P = 0.02  # share of transactions sent to the NULL address
AMOUNT_MAX = 10**9


@dataclass(frozen=True)
class AccountSpec:
    tx_count: int = 1000


def generate_account_txs(spec: AccountSpec, seed: int):
    from .account import NULL_ADDRESS, AccountTx
    rng = derive_rng(seed, "account")
    names = [f"e{i:04d}" for i in range(ACCOUNTS)]
    nonces = {n: 0 for n in names}
    txs = []
    height, index = 1, 0
    for i in range(spec.tx_count):
        if index >= ACCOUNT_TXS_PER_BLOCK:
            height += 1
            index = 0
        sender = rng.choice(names)
        if rng.random() < NULL_P:
            to = NULL_ADDRESS
        else:
            to = rng.choice([n for n in names if n != sender])
        index += 1
        txs.append(AccountTx(
            sender=sender, to=to, amount_wei=rng.randint(1, AMOUNT_MAX),
            nonce=nonces[sender], block_height=height, block_index=index,
            timestamp=height * 12,
        ))
        nonces[sender] += 1
    return txs


# --------------------------------------------------------------------------
# Ripple

CURRENCY = "USD"
LIMIT_MAX = 1000
XRP_FUNDING = 1_000_000_000


@dataclass(frozen=True)
class RippleSpec:
    accounts: int = 12
    trust_density: float = 0.25


def generate_trust_graph(spec: RippleSpec, seed: int):
    from .ripple import RippleLedger
    rng = derive_rng(seed, "ripple")
    led = RippleLedger()
    names = [f"r{i:04d}" for i in range(spec.accounts)]
    for n in names:
        led.create_account(n, xrp_drops=XRP_FUNDING)
    for lender in names:
        for borrower in names:
            if lender == borrower or rng.random() >= spec.trust_density:
                continue
            limit = rng.randint(10, LIMIT_MAX)
            led.set_trust(lender, borrower, CURRENCY, limit, no_ripple=False)
            used = rng.randint(0, limit // 2)
            if used:
                led.adjust_line_debt(lender, borrower, CURRENCY, used)
    return led


# --------------------------------------------------------------------------
# Tangle

ADDRESSES = 8
FUNDING = 1_000_000


@dataclass(frozen=True)
class TangleSpec:
    bundles_per_cycle: int = 6
    cycles: int = 10
    snapshot_every: int = 5
    tip_strategy: str = "uniform-random"
    difficulty: int = 0


def generate_tangle(spec: TangleSpec, seed: int):
    """Grow a tangle through attach/milestone/snapshot cycles; returns the
    final state and the per-cycle balance totals (for conservation checks)."""
    from .iota.bundles import build_bundle
    from .iota.tangle import TangleState
    rng = derive_rng(seed, "tangle")
    names = [f"IOTAADDR{i:02d}" for i in range(ADDRESSES)]
    state = TangleState({n: FUNDING for n in names})
    totals = [sum(state.balances.values())]
    spendable = {n: FUNDING for n in names}
    for cycle in range(spec.cycles):
        for b in range(spec.bundles_per_cycle):
            # spendable always sums to ADDRESSES * FUNDING, so some
            # address holds more than 1
            src = rng.choice([n for n in names if spendable.get(n, 0) > 1])
            amount = rng.randint(1, spendable[src])
            dst = rng.choice([n for n in names if n != src])
            level = rng.choice((1, 2, 3))
            keep = spendable[src] - amount
            outputs = [(dst, amount)] if keep == 0 else \
                [(dst, amount), (src, keep)]
            bundle = build_bundle([(src, level, spendable[src])], outputs,
                                  timestamp=cycle * 60 + b)
            tips = state.select_tips(spec.tip_strategy,
                                     rng_seed=rng.randrange(2**31))
            state.attach(bundle, tips, difficulty=spec.difficulty)
            spendable[src] = keep
            spendable[dst] = spendable.get(dst, 0) + amount
        state.issue_milestone(timestamp=cycle * 60 + 59)
        totals.append(sum(state.balances.values()))
        if (cycle + 1) % spec.snapshot_every == 0:
            _balances, state = state.snapshot()
            totals.append(sum(state.balances.values()))
            spendable = dict(state.balances)
    return state, totals
