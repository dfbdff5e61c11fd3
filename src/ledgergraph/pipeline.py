"""End-to-end orchestration: ingest or generate a ledger, run its
validators, build every graph and matrix for the window, and write
deterministic CSV/JSON reports into an output directory.

Every ingested or generated ledger passes its chain's validators before
any graph is built; validation failures surface as LedgerError with a
machine-readable code.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass, field

from . import account, scenario
from .chainlets import DEFAULT_N, build_matrices, snapshot_from_ledger
from .core import (LedgerError, export_edge_list, export_hypergraph,
                   export_matrix, read_lines)
from .generate import AccountSpec, UtxoSpec, generate_account_txs, generate_utxo
from .utxo import INITIAL_SUBSIDY, load_jsonl
from .utxo_graphs import (
    build_address_graph,
    build_bipartite_graph,
    build_transaction_graph,
    graph_stats,
)

__all__ = ["RunConfig", "UnknownChainError", "run_pipeline"]


class UnknownChainError(LedgerError):
    code = "unknown-chain"


@dataclass(frozen=True)
class RunConfig:
    """One run: what to read (or generate), where to write, and the
    window/fold parameters. The seed fully determines generated input."""

    chain: str = "utxo"
    input_path: str | None = None  # None: generate synthetically
    output_dir: str = "."
    seed: int = 0
    window: tuple[int | None, int | None] = (None, None)
    fold_n: int = DEFAULT_N
    subsidy: int = INITIAL_SUBSIDY
    generator: UtxoSpec = field(default_factory=UtxoSpec)
    genesis_balances: dict[str, int] = field(default_factory=dict)


def _write(directory: str, name: str, data: bytes) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _report(config: RunConfig, outputs: dict[str, str], summary: dict) -> dict:
    outputs["summary"] = _write(
        config.output_dir, "summary.json",
        (json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
        .encode("utf-8"))
    return {"outputs": outputs, "summary": summary}


def _utxo_pipeline(config: RunConfig) -> dict:
    if config.input_path is not None:
        ledger = load_jsonl(read_lines(config.input_path), subsidy=config.subsidy)
    else:
        ledger = generate_utxo(config.generator, config.seed)
    start, end = config.window
    outputs: dict[str, str] = {}
    # to_edge_list returns the graph; bench/test_bench.py needs its traced span
    tx_el = build_transaction_graph(ledger, start, end).to_edge_list()
    addr_el = build_address_graph(ledger, start, end).to_edge_list()
    outputs["transaction_graph"] = _write(
        config.output_dir, "transaction_graph.csv", export_edge_list(tx_el))
    outputs["address_graph"] = _write(
        config.output_dir, "address_graph.csv", export_edge_list(addr_el))
    outputs["bipartite"] = _write(
        config.output_dir, "bipartite.csv",
        export_edge_list(build_bipartite_graph(ledger, start, end)))

    snapshot = snapshot_from_ledger(ledger, start, end)
    mats = build_matrices(snapshot, config.fold_n)
    outputs["occurrence"] = _write(config.output_dir, "occurrence.csv",
                                   export_matrix(mats.occurrence))
    outputs["amount"] = _write(config.output_dir, "amount.csv",
                               export_matrix(mats.amount))

    summary = {
        "chain": "utxo",
        **ledger.summary(),
        "tx_graph": graph_stats(tx_el),
        "address_graph": graph_stats(addr_el),
        "occurrence_total": int(mats.occurrence.sum()),
        "amount_total": int(mats.amount.sum()),
    }
    return _report(config, outputs, summary)


def _script_pipeline(config: RunConfig) -> dict:
    lines = read_lines(config.input_path) if config.input_path is not None else []
    outputs: dict[str, str] = {}
    if config.chain == "ripple":
        led, log = scenario.replay_ripple(lines)
        outputs["trust_graph"] = _write(config.output_dir, "trust_graph.csv",
                                        export_edge_list(led.trust_graph()))
        outputs["payment_graph"] = _write(
            config.output_dir, "payment_graph.csv",
            export_hypergraph(led.payment_graph()))
        summary = {"chain": "ripple", "accounts": len(led.accounts),
                   "trust_lines": len(led.states),
                   "payments": len(led.payments),
                   "rejected_ops": sum(1 for e in log if not e["ok"])}
    elif config.chain == "iota":
        state, log = scenario.replay_tangle(
            lines, genesis_balances=config.genesis_balances)
        outputs["tangle"] = _write(config.output_dir, "tangle.csv",
                                   state.export_csv())
        outputs["tangle_graph"] = _write(
            config.output_dir, "tangle_graph.csv",
            export_edge_list(state.tangle_graph()))
        outputs["transaction_graph"] = _write(
            config.output_dir, "transaction_graph.csv",
            export_edge_list(state.transaction_graph()))
        summary = {"chain": "iota", "transactions": len(state.transactions),
                   "confirmed": len(state.confirmed),
                   "invalid": len(state.invalid),
                   "supply": sum(state.balances.values()),
                   "rejected_ops": sum(1 for e in log if not e["ok"])}
    else:
        raise UnknownChainError(f"unknown chain kind {config.chain!r}")
    outputs["log"] = path = os.path.join(config.output_dir, "events.jsonl")
    with open(path, "wb") as fh:
        scenario.dump_log(log, fh)
    return _report(config, outputs, summary)


def _account_pipeline(config: RunConfig) -> dict:
    if config.input_path is not None:
        txs = account.load_jsonl(read_lines(config.input_path))
    else:
        txs = generate_account_txs(AccountSpec(), config.seed)
    graph = account.build_account_graph(txs)  # nonce validation gates the build
    outputs = {
        "account_graph": _write(config.output_dir, "account_graph.csv",
                                export_edge_list(graph)),
    }
    summary = {"chain": "account", "transactions": len(txs),
               "graph": graph_stats(graph)}
    return _report(config, outputs, summary)


def run_pipeline(config: RunConfig) -> dict:
    """Validate, build and export everything for one run. Returns the
    report dict; all written artifacts are deterministic functions of
    (input, config, seed).

    The cyclic garbage collector is paused for the run and left as the
    caller had it: ledger records, edges and rows form no reference
    cycles, so its passes over them found nothing and cost time that
    grew with the ledger. Reference counting still frees everything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        if config.chain == "utxo":
            return _utxo_pipeline(config)
        if config.chain == "account":
            return _account_pipeline(config)
        return _script_pipeline(config)
    finally:
        if enabled:
            gc.enable()
