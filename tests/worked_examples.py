"""The worked examples that the test suite checks against.

Ledgers, the account table and the trace walkthrough are read from the
committed files under ``fixtures/`` at the repository root, through the
same readers as any input. Amounts are in subunits; the coin values
quoted in comments use 1 coin = 100,000,000 subunits.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from ledgergraph import account
from ledgergraph.core import read_lines
from ledgergraph.scenario import replay_ripple
from ledgergraph.utxo import COIN, Ledger, load_jsonl

_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _lines(name: str) -> Iterator[str]:
    return read_lines(os.path.join(_DIR, name))


def _ledger(name: str, subsidy: int) -> Ledger:
    """A fixture ledger, validated with a flat per-block subsidy large
    enough for its funding block."""
    return load_jsonl(_lines(name), subsidy=subsidy)


def lineage_ledger() -> Ledger:
    """Output-linked graph replica: o6 has two lineages, o1->o4->o6 and
    o2->o6. Returns a ledger where g creates o1/o2, t2 spends o1 into o4,
    and t3 merges o4 with o2 into o6."""
    return _ledger("lineage.jsonl", 10 * COIN)


def six_tx_network() -> Ledger:
    """The six-transaction, twelve-address blockchain network.

    Window blocks 1..2 hold t1..t6; block 0 funds a1..a4 from outside the
    window. t3 and t4 are the window's coinbases. Spends realize exactly
    the transaction-graph edges t1->t5, t2->t5, t2->t6, t3->t5, t3->t6,
    t4->t6; t5 re-pays the previously used a1 and t6 sends change back to
    its own input address a10.
    """
    return _ledger("six_tx_network.jsonl", 6 * COIN)


SIX_TX_WINDOW = (1, 2)  # block range holding t1..t6


def weighted_example_ledger() -> Ledger:
    """Worked edge-weight example: inputs of 1 and 3 BTC, outputs of 0.9
    and 2 BTC, so w(2->3) = 27/29 BTC and w(2->4) = 60/29 BTC exactly."""
    return _ledger("weighted_example.jsonl", 4 * COIN)


def amount_network() -> Ledger:
    """Six-transaction network with amounts; fees range 0.02 to 0.1 coins.

    Chainlet census of the window (block 1): t1 = C(2,1) moving 1.9,
    t2 = C(2,3) moving 3, t3 and t6 = C(1,2) moving 1.8 and 1.78,
    t4 = C(3,1) moving 2.8, t5 = C(2,2) moving 1.75, which yields

        O = [[0,2,0],[1,1,1],[1,0,0]]
        A = [[0,3.58,0],[1.9,1.75,3],[2.8,0,0]]  (coins)
    """
    return _ledger("amount_network.jsonl", 12 * COIN)


AMOUNT_NETWORK_WINDOW = (1, 1)


def fold_example_ledger() -> Ledger:
    """Extends the amount network so the N=3 matrices equal the in-text
    folding example:

        O = [[0,2,1],[1,1,1],[1,0,3]]
        A = [[0,3.58,0.5],[1.9,1.75,3],[2.8,0,4]]  (coins)

    Folding to N=2 must then give O=[[0,3],[2,5]], A=[[0,4.08],[4.7,8.75]].
    """
    return _ledger("fold_example.jsonl", 20 * COIN)


FOLD_EXAMPLE_WINDOW = (1, 1)


# --------------------------------------------------------------------------
# Account model fixtures

def account_table_txs() -> list[account.AccountTx]:
    return account.load_jsonl(_lines("account_table.jsonl"))


def trace_scenario() -> list[account.Trace]:
    """Three traces of the salesman-contract walkthrough: a forfeited small
    deposit, the owner's withdrawal, and a successful delegated conversion.
    The final token balance write is a state change only and never appears
    as a trace step."""
    return account.run_trace_script(_lines("trace_calls.jsonl"))


# --------------------------------------------------------------------------
# Ripple fixtures

def rippling_network():
    """Five-party USD trust graph for the path-settlement walkthrough.

    Lender->borrower lines (limit, already used): tim->sarah (100, 0),
    john->tim (100, 25), bob->john (100, 15), bob->alice (100, 0),
    alice->sarah (20, 2). The 50 USD payment sarah->bob must settle over
    tim and john; the alice route offers only 18. Built by replaying the
    set-up lines (every line but the payments) of rippling_payment.jsonl.
    """
    setup = [line for line in _lines("rippling_payment.jsonl")
             if json.loads(line)["op"] != "pay"]
    led, _log = replay_ripple(setup)
    return led


def holding(led, address: str, currency: str, issuer: str) -> int:
    """What `address` holds of `currency` issued by `issuer`: its net
    positive balance on their trust line, 0 when there is no line."""
    state = led.line(address, issuer, currency)
    if state is None:
        return 0
    return max(0, state.balance if state.low == address else -state.balance)


# --------------------------------------------------------------------------
# IOTA fixtures

IOTA_TABLE_BUNDLE = {
    # one input at security level 2, two outputs; values sum to zero
    "input": ("OOC..H9X", 2, 142_998_000),
    "outputs": [("EM9..SYW", 1_000), ("NBN..GJA", 142_997_000)],
}
