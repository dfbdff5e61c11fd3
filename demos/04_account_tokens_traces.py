"""Account model: nonce order, token trades, trace hypergraphs
===============================================================

Account-model transactions always have one sender and one receiver,
ordered per sender by nonce. Token trades live inside contract storage
as internal transfers, and call cascades become hyperedges.
"""

import os

from ledgergraph.account import (
    TokenLedger,
    TraceExecutor,
    build_account_graph,
    build_token_graph,
    build_trace_hypergraph,
    deploy_token,
    load_jsonl,
    run_trace_script,
    validate_nonce_order,
)
from ledgergraph.core import read_lines

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

print("=== the edge table as a multigraph ===")
txs = load_jsonl(read_lines(os.path.join(FIXTURES, "account_table.jsonl")))
print(f"  nonce problems: {validate_nonce_order(txs) or 'none'}")
graph = build_account_graph(txs)
for e in graph.edges:
    attrs = e.attr_dict
    print(f"  {e.source} -> {e.target}: {e.weight} wei "
          f"(nonce {attrs['nonce']}, block {attrs['block']})")

print("\n=== a token trade produces two partial views ===")
ledger = TokenLedger()
token = ledger.register(deploy_token("issuer", "TOK", 18, 1_000, nonce=0))
print(f"  token contract deployed at {token.address} (from owner+nonce)")
ledger.execute_token_transfer(token.address, "issuer", "a2", 50, "seed_tx")
# a1 already paid a2 100 wei on-chain; a2 answers with 2 TOK internally
ledger.execute_token_transfer(token.address, "a2", "a1", 2, "tx_block6")
token_graph = build_token_graph(ledger.transfers)
for e in token_graph[token.address].edges:
    print(f"  token edge {e.source} -> {e.target}: {e.weight} TOK")
print(f"  supply conserved: {token.check_conservation()}")

print("\n=== trace hypergraph of the sales-contract walkthrough ===")
traces = run_trace_script(read_lines(os.path.join(FIXTURES, "trace_calls.jsonl")))
for h in build_trace_hypergraph(traces).edges:
    print(f"  {h.label}: {' -> '.join(h.members)}")

print("\n=== a call loop truncates at the step budget ===")
executor = TraceExecutor(behaviors={
    "cA": [("cB", "call", 0)],
    "cB": [("cA", "call", 0)],
}, call_budget=6)
trace = executor.run("looping_tx", "someone", "cA")
print(f"  steps executed: {len(trace.steps) - 1}, truncated: {trace.truncated}")
print(f"  final step kind: {trace.steps[-1].kind}")
