"""The shipped fixture files replay to the documented outcomes through
the file-based paths."""

import hashlib
import os

from ledgergraph import scenario
from ledgergraph.ripple import load_trust_csv

import worked_examples

REPO_FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def read(name):
    with open(os.path.join(REPO_FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def test_rippling_script_outcomes():
    led, log = scenario.replay_ripple(read("rippling_payment.jsonl").splitlines())
    payments = [e for e in log if e["op"] == "pay"]
    assert payments[0]["ok"] and payments[0]["result"]["delivered"] == 50
    assert not payments[1]["ok"]  # repeat: capacity 25 < 50
    assert payments[2]["ok"] and payments[2]["result"]["delivered"] == 25


def test_rippling_network_is_the_script_set_up():
    # known answer: the set-up lines of rippling_payment.jsonl
    led = worked_examples.rippling_network()
    assert hashlib.sha256(led.state_digest().encode()).hexdigest() == \
        "6c142861cc1bc04814a3ee61df63e007c7f937eeb5b5a91a2367feb1ee212578"
    assert led.writes == 18


def test_double_spend_script_outcome():
    state, log = scenario.replay_tangle(
        read("tangle_double_spend.jsonl").splitlines(),
        genesis_balances={"a1": 100, "funder": 1000})
    assert all(e["ok"] for e in log)
    milestone = log[-1]["result"]
    assert len({state.transactions[h].bundle for h in milestone["invalid"]}) == 4
    assert milestone["balances"] == {"a1": 0, "funder": 1000, "r1": 100}


def test_offer_script_outcome():
    led, log = scenario.replay_ripple(read("offer_examples.jsonl").splitlines())
    assert all(e["ok"] for e in log)
    assert worked_examples.holding(led, "o2", "EUR", "issE") == 7
    assert worked_examples.holding(led, "o1", "USD", "issU") == 10
    assert led.book_rows() == []  # full cross leaves no residual


def test_trust_graph_csv_loads_canonically():
    led = load_trust_csv(read("trust_graph.csv").splitlines())
    assert len(led.states) == 5
    state = led.line("gateway", "rSA...Adw", "USD")
    assert (state.balance, state.low_limit, state.high_limit) == (250, 500, 0)


def test_trace_script_produces_walkthrough_hyperedges(tmp_path, capsys):
    from ledgergraph.cli import main
    out = tmp_path / "traces.csv"
    code = main(["account", "traces",
                 os.path.join(REPO_FIXTURES, "trace_calls.jsonl"),
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    members = {}
    for row in rows[1:]:
        label, pos, member = row.split(",")
        members.setdefault(label, []).append(member)
    assert members["tx1"] == ["0x0..ow", "0x0..a4", "0x0..25"]
    assert members["tx3"] == ["0x0..1e", "0x0..25"]
    assert members["tx4"] == ["0x0..ow", "0x0..25", "0x0..57"]
