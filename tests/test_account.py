"""Account multigraph, nonce ordering, tokens, trace hypergraphs."""

import pytest

from ledgergraph.account import (
    DEFAULT_CALL_BUDGET,
    NULL_ADDRESS,
    AccountTx,
    InsufficientTokenBalanceError,
    TokenLedger,
    Trace,
    TraceExecutor,
    TraceStep,
    build_account_graph,
    build_token_graph,
    build_trace_hypergraph,
    deploy_token,
    run_trace_script,
    validate_nonce_order,
)
from ledgergraph.cli import main as cli_main

import worked_examples


def atx(sender, to, amount, nonce, block, index):
    return AccountTx(sender=sender, to=to, amount_wei=amount, nonce=nonce,
                     block_height=block, block_index=index)


# -- nonce order ---------------------------------------------------------------

def test_edge_table_nonces_valid():
    assert validate_nonce_order(worked_examples.account_table_txs()) == []


def test_nonce_gap_detected():
    txs = [atx("a", "b", 1, 0, 1, 1), atx("a", "b", 1, 1, 1, 2),
           atx("a", "b", 1, 3, 2, 1)]
    problems = validate_nonce_order(txs)
    assert [p.kind for p in problems] == ["gap"]
    assert problems[0].nonce == 2


def test_duplicate_nonce_detected():
    txs = [atx("a", "b", 1, 0, 1, 1), atx("a", "c", 1, 0, 2, 1)]
    assert [p.kind for p in validate_nonce_order(txs)] == ["duplicate"]


def test_same_block_multiples_allowed_in_index_order():
    txs = [atx("a", "b", 1, 0, 7, 3), atx("a", "b", 1, 1, 7, 9)]
    assert validate_nonce_order(txs) == []


# -- account graph -----------------------------------------------------------------

def test_edge_table_graph_shape():
    graph = build_account_graph(worked_examples.account_table_txs())
    assert len(graph) == 6
    assert sorted(graph.nodes()) == ["NULL", "a1", "a2", "a3", "a4"]
    weights = sorted(e.weight for e in graph.edges)
    assert weights == [24, 24, 49, 100, 200, 249]


def test_self_send_is_a_loop():
    graph = build_account_graph([atx("a", "a", 5, 0, 1, 1)])
    [e] = graph.edges
    assert e.source == e.target == "a"


def test_invalid_nonces_block_graph_build():
    txs = [atx("a", "b", 1, 5, 1, 1)]
    with pytest.raises(Exception):
        build_account_graph(txs)


def test_contract_payout_only_via_traces():
    # a contract cannot initiate a top-level transaction
    with pytest.raises(Exception):
        build_account_graph([AccountTx(sender=NULL_ADDRESS, to="a", amount_wei=1,
                                       nonce=0, block_height=1, block_index=1)])
    trace = Trace("tx9", (TraceStep("contractC", "eoaA", "value-transfer", 77),))
    (edge,) = build_trace_hypergraph([trace]).edges
    assert (edge.label, edge.members) == ("tx9", ("contractC", "eoaA"))
    assert edge.step_attrs == (("step0", "value-transfer:contractC->eoaA"),)


def test_null_sender_rejected_but_null_sink_allowed():
    graph = build_account_graph([atx("a", NULL_ADDRESS, 9, 0, 1, 1)])
    assert graph.edges[0].target == NULL_ADDRESS


# -- tokens -----------------------------------------------------------------------

def test_deploy_address_deterministic_and_nonce_sensitive():
    c0 = deploy_token("owner", "TOK", 18, 1000, nonce=0)
    c0_again = deploy_token("owner", "TOK", 18, 1000, nonce=0)
    c1 = deploy_token("owner", "TOK", 18, 1000, nonce=1)
    assert c0.address == c0_again.address
    assert c0.address != c1.address
    assert c0.balances == {"owner": 1000}


def test_trade_flow_two_partial_views():
    # coin leg: a1 pays a2 100 wei; token leg: a2 sends 2 tokens to a1
    coin_txs = [atx("a1", "a2", 100, 0, 5, 1),
                AccountTx(sender="a2", to="a3", amount_wei=0, nonce=0,
                          block_height=6, block_index=1)]
    coin_graph = build_account_graph(coin_txs)
    assert ("a1", "a2", 100) in [(e.source, e.target, e.weight)
                                 for e in coin_graph.edges]

    ledger = TokenLedger()
    contract = ledger.register(deploy_token("a3owner", "TOK", 18, 10, nonce=0))
    ledger.execute_token_transfer(contract.address, "a3owner", "a2", 2, "seed")
    xfer = ledger.execute_token_transfer(contract.address, "a2", "a1", 2, "tx_b6")
    graphs = build_token_graph(ledger.transfers)
    pairs = [(e.source, e.target, e.weight) for e in graphs[contract.address].edges]
    assert ("a2", "a1", 2) in pairs
    assert xfer.triggering_tx == "tx_b6"
    # the internal transfer never became a top-level transaction
    assert all(e.weight != 2 for e in coin_graph.edges)


def test_zero_token_transfer_recorded_without_balance_change():
    ledger = TokenLedger()
    c = ledger.register(deploy_token("o", "TOK", 18, 5, nonce=0))
    before = dict(c.balances)
    ledger.execute_token_transfer(c.address, "o", "x", 0, "t")
    assert len(ledger.transfers) == 1
    assert c.balance_of("o") == before["o"]


def test_overdraw_fails_without_side_effects():
    ledger = TokenLedger()
    c = ledger.register(deploy_token("o", "TOK", 18, 5, nonce=0))
    with pytest.raises(InsufficientTokenBalanceError):
        ledger.execute_token_transfer(c.address, "x", "y", 1, "t")
    assert c.balances == {"o": 5}
    assert ledger.transfers == []


def test_token_conservation_under_random_transfers():
    import random
    rng = random.Random(4)
    ledger = TokenLedger()
    c = ledger.register(deploy_token("o", "TOK", 18, 10_000, nonce=0))
    holders = ["o", "h1", "h2", "h3"]
    for i in range(300):
        src = rng.choice(holders)
        dst = rng.choice(holders)
        amount = rng.randint(0, 50)
        try:
            ledger.execute_token_transfer(c.address, src, dst, amount, f"t{i}")
        except InsufficientTokenBalanceError:
            pass
        assert c.check_conservation()
    # replaying the transfer log reproduces the balances (graph/ledger duality)
    replay = {"o": 10_000}
    for t in ledger.transfers:
        replay[t.sender] = replay.get(t.sender, 0) - t.token_amount
        replay[t.recipient] = replay.get(t.recipient, 0) + t.token_amount
    assert {k: v for k, v in replay.items() if v or k in c.balances} == \
        {k: v for k, v in c.balances.items() if v or k in replay}


def test_symbols_not_unique_addresses_are():
    ledger = TokenLedger()
    c1 = ledger.register(deploy_token("o1", "USDT", 6, 10, nonce=0))
    c2 = ledger.register(deploy_token("o2", "USDT", 6, 10, nonce=0))
    assert c1.symbol == c2.symbol and c1.address != c2.address


# -- traces -----------------------------------------------------------------------

def test_walkthrough_hyperedges():
    hg = build_trace_hypergraph(worked_examples.trace_scenario())
    members = {h.label: h.members for h in hg.edges}
    assert members["tx1"] == ("0x0..ow", "0x0..a4", "0x0..25")
    assert members["tx3"] == ("0x0..1e", "0x0..25")
    assert members["tx4"] == ("0x0..ow", "0x0..25", "0x0..57")
    assert sorted(hg.nodes()) == sorted(
        ["0x0..ow", "0x0..1e", "0x0..a4", "0x0..25", "0x0..57"])


def test_plain_transfer_hyperedge_size_two():
    hg = build_trace_hypergraph([Trace("t", (TraceStep("a", "b", "call", 5),)),
                                 Trace("s", (TraceStep("a", "a"),))])
    assert len(hg.edges[0].members) == 2
    assert [e.label for e in hg.edges] == ["t"]  # a self-call touches one address


def test_sequential_step_order_preserved():
    trace = worked_examples.trace_scenario()[0]
    callers = [s.caller for s in trace.steps]
    assert callers == ["0x0..ow", "0x0..a4"]  # strictly sequential, no interleave


def test_call_loop_truncated_at_budget():
    executor = TraceExecutor(behaviors={
        "c1": [("c2", "call", 0)],
        "c2": [("c3", "call", 0)],
        "c3": [("c1", "call", 0)],
    }, call_budget=10)
    trace = executor.run("txloop", "eoa", "c1")
    assert trace.truncated
    assert trace.steps[-1].kind == "error"
    assert len([s for s in trace.steps if s.kind != "error"]) == 10


def test_self_calling_contract_truncates_at_the_default_budget(tmp_path):
    script = tmp_path / "self_call.jsonl"
    script.write_text('{"op":"behavior","address":"A","calls":[{"to":"A"}]}\n'
                      '{"op":"tx","id":"t1","from":"S","to":"A"}\n')
    (trace,) = run_trace_script(script.read_text().splitlines())
    assert trace.truncated
    assert [s.kind for s in trace.steps] == ["call"] * DEFAULT_CALL_BUDGET + ["error"]
    assert cli_main(["account", "traces", str(script),
                     "--out", str(tmp_path / "traces.csv")]) == 0


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_of_zero_or_below_truncates_at_once(budget):
    trace = TraceExecutor(behaviors={"c1": [("c2", "call", 1)]},
                          call_budget=budget).run("t", "eoa", "c1")
    assert trace.truncated
    assert trace.steps == (TraceStep("eoa", "c1", "error", 0),)


def test_executor_respects_generous_budget():
    executor = TraceExecutor(behaviors={"c1": [("c2", "call", 1)]}, call_budget=50)
    trace = executor.run("t", "eoa", "c1", value=3)
    assert not trace.truncated
    assert [s.kind for s in trace.steps] == ["call", "call"]
