"""The CLI output corpus: a table of `cli.main` invocations, each with
its exit code and the sha256 of its stdout, stderr and every file it
writes.

`python tests/record_cli_corpus.py` runs every invocation in process and
rewrites `tests/cli_corpus.json`; `tests/test_cli_corpus.py` replays the
table and compares. Each run starts in a fresh working directory that
holds a copy of `fixtures/` and the entry's own inputs under `in/`, so
every path an argument or message names is relative. Files are written
under `out/`. A change that re-records the table names each entry it
changed, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CORPUS = pathlib.Path(__file__).resolve().with_name("cli_corpus.json")

UTXO = ["amount_network", "fold_example", "lineage", "six_tx_network",
        "weighted_example"]
SEED_TRYTES = "LEDGER" + "9" * 75
GENESIS = '{"a1": 100, "funder": 1000}'
COINBASE = '{"id":"c","block":0,"coinbase":true,"outputs":[{"amount":1,"address":"m"}]}\n'


def _fixture(name: str) -> str:
    return f"fixtures/{name}"


def _rejections() -> list[dict]:
    """One rejected input per record format and script kind, so that the
    JSON that exit 2 writes to stderr is pinned too."""
    six = (FIXTURES / "six_tx_network.jsonl").read_text()
    t1 = next(line for line in six.splitlines() if '"id":"t1"' in line)
    return [
        {"id": "reject-utxo-double-spend",
         "inputs": {"in.jsonl": six + t1.replace('"t1"', '"t1x"') + "\n"},
         "args": ["utxo", "validate", "in/in.jsonl"]},
        {"id": "reject-utxo-bad-json", "inputs": {"in.jsonl": COINBASE + "{\n"},
         "args": ["utxo", "graph", "in/in.jsonl"]},
        {"id": "reject-chainlet-hidden-amount",
         "inputs": {"in.jsonl": COINBASE + COINBASE.replace('"c"', '"c1"').replace(
             '"block":0', '"block":1') + '{"id":"t","block":1,"inputs":[{"txid":"c",'
             '"index":0}],"outputs":[{"amount":1,"address":"x","visible":false}]}\n'},
         "args": ["chainlet", "in/in.jsonl", "--out", "out/occ.csv,out/amt.csv"]},
        {"id": "reject-account-negative-amount",
         "inputs": {"in.jsonl": '{"from":"a1","to":"a2","amount":-7,"nonce":0,'
                    '"block":1,"index":0}\n'},
         "args": ["account", "graph", "in/in.jsonl"]},
        {"id": "reject-token-negative-supply",
         "inputs": {"t.jsonl": '{"op":"deploy","owner":"a","symbol":"X","supply":-5,'
                    '"nonce":0}\n'},
         "args": ["account", "tokens", "in/t.jsonl"]},
        {"id": "reject-trace-call-kind",
         "inputs": {"t.jsonl": '{"op":"behavior","address":"c","calls":[{"to":"d",'
                    '"kind":"x"}]}\n{"op":"tx","id":"t","from":"a","to":"c"}\n'},
         "args": ["account", "traces", "in/t.jsonl"]},
        {"id": "reject-trust-csv-cell",
         "inputs": {"trust.csv": "a,b,USD,x,0,0\n"},
         "args": ["ripple", "report", "--trust", "in/trust.csv"]},
        {"id": "reject-ripple-script-xrp-issuer",
         "inputs": {"s.jsonl": '{"op":"create_account","address":"a","xrp":1000000000}\n'
                    '{"op":"create_account","address":"b","xrp":1000000000}\n'
                    '{"op":"pay","account":"a","destination":"b","amount":'
                    '{"currency":"XRP","issuer":"zz","value":5}}\n'},
         "args": ["ripple", "pay", "in/s.jsonl", "--out", "out/log.jsonl"]},
        {"id": "reject-ripple-script-failed-op",
         "inputs": {"s.jsonl": '{"op":"create_account","address":"a","xrp":1000000000}\n'
                    '{"op":"pay","account":"a","destination":"b","amount":'
                    '{"currency":"XRP","value":5}}\n'},
         "args": ["ripple", "pay", "in/s.jsonl"]},
        {"id": "reject-tangle-script-tips",
         "inputs": {"s.jsonl": '{"op":"attach_message","address":"m","tips":"GENESIS"}\n'},
         "args": ["iota", "grow", "in/s.jsonl"]},
        {"id": "reject-genesis-value", "inputs": {},
         "args": ["iota", "grow", _fixture("tangle_double_spend.jsonl"),
                  "--genesis", '{"a1": "x"}']},
        {"id": "reject-bundle-item", "inputs": {},
         "args": ["iota", "bundle", "--inputs", "A1:2", "--outputs", "A5:100"]},
        {"id": "reject-derive-level", "inputs": {},
         "args": ["iota", "derive", "--seed-trytes", SEED_TRYTES, "--level", "5"]},
    ]


def invocations() -> list[dict]:
    """The table's entries, each an id, its arguments and its inputs."""
    runs: list[list[str]] = []
    for name in UTXO:
        src = _fixture(f"{name}.jsonl")
        runs.append(["utxo", "validate", src])
        for kind in ("tx", "address", "bipartite"):
            for fmt in ("csv", "json"):
                runs.append(["utxo", "graph", src, "--kind", kind, "--format", fmt,
                             "--out", f"out/edges.{fmt}"])
        runs.append(["utxo", "graph", src, "--from", "1", "--to", "1"])
        for n in ("1", "3", "20"):
            for window in ([], ["--window", "1:1"]):
                runs.append(["chainlet", src, "--N", n, *window,
                             "--out", "out/occ.csv,out/amt.csv"])
        runs.append(["chainlet", src])
    runs.append(["utxo", "validate", _fixture("six_tx_network.jsonl"),
                 "--subsidy", "600000000"])
    for fmt in ("csv", "json"):
        runs.append(["account", "graph", _fixture("account_table.jsonl"),
                     "--format", fmt, "--out", f"out/graph.{fmt}"])
        runs.append(["account", "traces", _fixture("trace_calls.jsonl"),
                     "--format", fmt, "--out", f"out/traces.{fmt}"])
        runs.append(["ripple", "trust", "--trust", _fixture("trust_graph.csv"),
                     "--format", fmt, "--out", f"out/trust.{fmt}"])
    runs += [
        ["account", "graph", _fixture("account_table.jsonl")],
        ["account", "tokens", _fixture("token_script.jsonl")],
        ["account", "tokens", _fixture("account_table.jsonl"), "--out", "out/t.json"],
        ["account", "traces", _fixture("trace_calls.jsonl"), "--budget", "1"],
        ["ripple", "report", "--trust", _fixture("trust_graph.csv")],
    ]
    for name in ("rippling_payment.jsonl", "offer_examples.jsonl"):
        for trust in ([], ["--trust", _fixture("trust_graph.csv")]):
            runs.append(["ripple", "pay", _fixture(name), *trust])
            runs.append(["ripple", "pay", _fixture(name), *trust, "--keep-going",
                         "--out", "out/log.jsonl"])
            runs.append(["ripple", "offers", _fixture(name), *trust,
                         "--out", "out/offers.csv"])
    tangle = _fixture("tangle_double_spend.jsonl")
    runs += [
        ["iota", "grow", tangle, "--genesis", GENESIS, "--out", "out/tangle.csv",
         "--log", "out/log.jsonl"],
        ["iota", "grow", tangle],
        ["iota", "derive", "--seed-trytes", SEED_TRYTES, "--index", "1",
         "--level", "2", "--checksum"],
        ["iota", "derive", "--seed-trytes", SEED_TRYTES],
        ["iota", "bundle", "--inputs", "A1:2:60,A2:2:40", "--outputs", "A5:100",
         "--tag", "CORPUS"],
    ]
    for chain in ("utxo", "account", "ripple", "iota"):
        for seed in ("0", "7", "42"):
            count = ["--count", "20"] if chain == "iota" else []
            runs.append(["generate", chain, "--seed", seed, *count,
                         "--out", f"out/{chain}.out"])
    runs.append(["generate", "utxo", "--count", "50", "--split-bias", "0.5",
                 "--reuse-p", "0.3"])
    return ([{"id": " ".join(args), "inputs": {}, "args": args} for args in runs]
            + _rejections())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(entry: dict, workdir: pathlib.Path) -> dict:
    """Run one entry in `workdir`, which holds `fixtures/`: its exit code
    and the digests of its stdout, stderr and the files under `out/`."""
    from ledgergraph.cli import main

    for sub in ("in", "out"):
        shutil.rmtree(workdir / sub, ignore_errors=True)
        (workdir / sub).mkdir()
    for name, text in entry["inputs"].items():
        (workdir / "in" / name).write_text(text)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(entry["args"]))
    finally:
        os.chdir(cwd)
    files = {path.relative_to(workdir).as_posix(): _sha256(path.read_bytes())
             for path in sorted((workdir / "out").rglob("*")) if path.is_file()}
    return {"exit": code, "stdout": _sha256(stdout.buffer.getvalue()),
            "stderr": _sha256(stderr.getvalue().encode()), "files": files}


@contextlib.contextmanager
def corpus_workdir():
    """A temporary working directory holding a copy of `fixtures/`."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        shutil.copytree(FIXTURES, workdir / "fixtures")
        yield workdir


def record() -> list[dict]:
    with corpus_workdir() as workdir:
        return [{**entry, **run_entry(entry, workdir)} for entry in invocations()]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    table = record()
    CORPUS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} entries written to {CORPUS.relative_to(ROOT)}")
