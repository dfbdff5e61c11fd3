"""One transfer history rendered in three ledger models yields one address
network: the UTXO address graph, the tangle's confirmed value graph and,
for single-source steps, the account graph agree exactly once self-loops
(change) are dropped. The weights are exact rationals, so agreement is
equality; it holds because no step pays a fee."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ledgergraph.account import AccountTx, build_account_graph
from ledgergraph.iota.bundles import build_bundle
from ledgergraph.iota.tangle import GENESIS_HASH, TangleState
from ledgergraph.utxo import Block, Ledger, Output, UtxoTransaction
from ledgergraph.utxo_graphs import build_address_graph

ADDRESSES = ["a", "b", "c", "d", "e"]


@st.composite
def histories(draw):
    """Genesis balances and fee-free steps. A step empties one or two
    funded addresses, ((source, amount), ...), into one to three outputs,
    ((target, amount), ...); a target may be a source (change)."""
    balances = {a: draw(st.integers(1, 1000)) for a in ADDRESSES[:3]}
    genesis = dict(balances)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        funded = sorted(a for a, v in balances.items() if v)
        sources = draw(st.lists(st.sampled_from(funded), min_size=1,
                                max_size=2, unique=True))
        total = sum(balances[s] for s in sources)
        n = draw(st.integers(1, min(3, total)))
        cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=n - 1,
                                    max_size=n - 1, unique=True))) if n > 1 else []
        amounts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
        targets = draw(st.lists(st.sampled_from(ADDRESSES), min_size=n,
                                max_size=n))
        spent = tuple((s, balances.pop(s)) for s in sources)
        for target, amount in zip(targets, amounts):
            balances[target] = balances.get(target, 0) + amount
        steps.append((spent, tuple(zip(targets, amounts))))
    return genesis, steps


def utxo_ledger(genesis, steps) -> Ledger:
    """One block: a coinbase funds the genesis addresses, then step n is
    transaction s<n>, spending every output its sources hold."""
    coinbase = UtxoTransaction("g", (), tuple(
        Output("g", i, amount, address)
        for i, (address, amount) in enumerate(sorted(genesis.items()))),
        coinbase=True, block_height=0)
    held: dict[str, list] = {}
    txs = [coinbase]
    for n, (spent, outputs) in enumerate(steps):
        for out in txs[-1].outputs:
            held.setdefault(out.address, []).append(out.ref)
        inputs = tuple(ref for source, _ in spent for ref in held.pop(source))
        txs.append(UtxoTransaction(f"s{n}", inputs, tuple(
            Output(f"s{n}", i, amount, address)
            for i, (address, amount) in enumerate(outputs)), block_height=0))
    ledger = Ledger()
    ledger.apply_block(Block(0, tuple(txs), sum(genesis.values())))
    return ledger


def tangle(genesis, steps) -> TangleState:
    """Step n is one bundle, confirmed by the milestone right after it."""
    state = TangleState(genesis)
    tip = GENESIS_HASH
    for n, (spent, outputs) in enumerate(steps):
        bundle = build_bundle([(source, 1, amount) for source, amount in spent],
                              list(outputs), timestamp=n)
        head = state.attach(bundle, (tip, tip))
        tip = state.issue_milestone((head, head), timestamp=n)
    return state


def summed(edges) -> dict[tuple[str, str], Fraction]:
    """Weights summed per (source, target), self-loops dropped."""
    totals: dict[tuple[str, str], Fraction] = {}
    for e in edges:
        if e.source != e.target:
            key = (e.source, e.target)
            totals[key] = totals.get(key, Fraction(0)) + e.weight
    return totals


@settings(max_examples=100, deadline=None)
@given(histories())
def test_every_model_yields_the_same_address_network(history):
    genesis, steps = history
    ledger = utxo_ledger(genesis, steps)
    state = tangle(genesis, steps)
    assert state.confirmed == set(state.transactions)
    held: dict[str, int] = {}
    for out in ledger.utxo.values():
        held[out.address] = held.get(out.address, 0) + out.amount
    assert {a: v for a, v in state.balances.items() if v} == held
    address_edges = build_address_graph(ledger).edges
    assert summed(address_edges) == summed(state.transaction_graph().edges)

    single = set()
    nonces: dict[str, int] = {}
    account_txs = []
    for n, (spent, outputs) in enumerate(steps):
        if len(spent) != 1:
            continue
        single.add(f"s{n}")
        sender = spent[0][0]
        for i, (target, amount) in enumerate(outputs):
            nonces[sender] = nonces.get(sender, -1) + 1
            account_txs.append(AccountTx(sender, target, amount, nonces[sender],
                                         block_height=n, block_index=i))
    assert summed(build_account_graph(account_txs).edges) == summed(
        e for e in address_edges if e.attr_dict["txid"] in single)

