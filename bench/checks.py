"""Output checks. Each returns a list of problems; an empty list passes.

A run whose checks report a problem counts as failed. Ledger rejections
that belong to the scripted semantics (no-path payments, invalidated
double spends) are not problems.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os


def digests(outputs: dict[str, str]) -> dict[str, str]:
    """sha256 of every artifact the pipeline reported writing."""
    out = {}
    for name, path in sorted(outputs.items()):
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_digests(actual: dict[str, str],
                  expected: dict[str, str]) -> list[str]:
    return [f"{name}: sha256 differs from bench/golden.json"
            for name in sorted(set(actual) | set(expected))
            if actual.get(name) != expected.get(name)]


def check_address_identity(outputs: dict[str, str]) -> list[str]:
    """Address-graph rows must equal the sum of |I|*|O| over the window's
    non-coinbase transactions. |I| and |O| are counted from the bipartite
    artifact: address->tx rows are inputs, tx->address rows outputs."""
    ins: dict[str, int] = {}
    outs: dict[str, int] = {}
    with open(outputs["transaction_graph"], encoding="utf-8") as fh:
        tx_ids = {row["source"] for row in csv.DictReader(fh)}
    with open(outputs["bipartite"], encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            spent = row["attr_json"]
            if not spent.startswith('{"output":'):
                return [f"bipartite.csv: unexpected attrs {spent[:40]!r}"]
            txid, _, _index = json.loads(spent)["output"].partition(":")
            if row["source"] == txid:
                outs[txid] = outs.get(txid, 0) + 1
            else:
                ins[row["target"]] = ins.get(row["target"], 0) + 1
    expected = sum(n * outs.get(tx, 0) for tx, n in ins.items())
    with open(outputs["address_graph"], "rb") as fh:
        rows = fh.read().count(b"\n") - 1
    problems = []
    if rows != expected:
        problems.append(f"address_graph.csv has {rows} rows, "
                        f"sum |I|*|O| is {expected}")
    if tx_ids - set(outs):
        problems.append("transaction_graph.csv names transactions "
                        "missing from bipartite.csv")
    return problems


def check_tangle_replay(outputs: dict[str, str], script: list[dict],
                        genesis: dict[str, int]) -> list[str]:
    """Replay the script again, untimed, check the ledger invariants on
    the resulting state, and compare every artifact with the bytes the
    same exporters give for that state."""
    from ledgergraph import scenario
    from ledgergraph.core import export_edge_list

    state, log = scenario.replay_tangle(script, genesis_balances=genesis)
    problems = []
    supply = sum(state.balances.values())
    if supply != sum(genesis.values()):
        problems.append(f"supply {supply} != genesis {sum(genesis.values())}")
    negative = sorted(a for a, v in state.balances.items() if v < 0)
    if negative:
        problems.append(f"negative balances: {negative[:5]}")
    overlap = state.confirmed & state.invalid
    if overlap:
        problems.append(f"{len(overlap)} transactions both confirmed and invalid")
    if not state.verify_dag():
        problems.append("verify_dag() is false")
    expected = {
        "tangle": ("\n".join(state.export_rows()) + "\n").encode("utf-8"),
        "tangle_graph": export_edge_list(state.tangle_graph()),
        "transaction_graph": export_edge_list(state.transaction_graph()),
        "log": "".join(json.dumps(e, sort_keys=True) + "\n"
                       for e in log).encode("utf-8"),
    }
    for name, data in expected.items():
        with open(outputs[name], "rb") as fh:
            if fh.read() != data:
                problems.append(f"{os.path.basename(outputs[name])} differs "
                                "from the untimed replay")
    with open(outputs["summary"], encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except ValueError:
            return problems + ["summary.json is not JSON"]
    want = {"chain": "iota", "transactions": len(state.transactions),
            "confirmed": len(state.confirmed), "invalid": len(state.invalid),
            "supply": supply,
            "rejected_ops": sum(1 for e in log if not e["ok"])}
    if summary != want:
        problems.append(f"summary.json {summary} != replay {want}")
    return problems

