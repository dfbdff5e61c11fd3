"""CLI surfaces: subcommands, file formats and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgergraph.chainlets import fold_matrix
from ledgergraph.cli import main
from ledgergraph.core import export_matrix
from ledgergraph.pipeline import RunConfig, run_pipeline


FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


@pytest.fixture()
def fixture_dir():
    return FIXTURES


def run_cli(args):
    return main([str(a) for a in args])


def test_utxo_validate_ok(fixture_dir, capsys):
    code = run_cli(["utxo", "validate", fixture_dir / "six_tx_network.jsonl",
                    "--subsidy", 600_000_000])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["transactions"] == 7  # six in the window plus the funding block


def test_utxo_validate_prints_the_pipeline_summary_fields(fixture_dir, tmp_path,
                                                          capsys):
    path = fixture_dir / "six_tx_network.jsonl"
    assert run_cli(["utxo", "validate", path, "--subsidy", 600_000_000]) == 0
    printed = json.loads(capsys.readouterr().out)
    run_pipeline(RunConfig(input_path=str(path), output_dir=str(tmp_path),
                           subsidy=600_000_000))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert printed == {key: summary[key] for key in (
        "blocks", "transactions", "unspent_outputs", "total_supply", "destroyed")}


def test_utxo_validate_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id":"c","block":0,"coinbase":true,"outputs":[{"amount":10,"address":"m"}]}\n'
        '{"id":"t","block":1,"coinbase":true,'
        '"outputs":[{"amount":999999999999,"address":"m"}]}\n')
    code = run_cli(["utxo", "validate", bad, "--subsidy", 100])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "excessive-reward"
    # a coinbase that names its output kinds must pay shielded addresses
    zcash = tmp_path / "zcash.jsonl"
    zcash.write_text('{"id":"c","block":0,"coinbase":true,'
                     '"outputs":[{"amount":1,"address":"m"}],'
                     '"kinds":{"in":[],"out":["t"]}}\n')
    assert run_cli(["utxo", "validate", zcash]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "unshielded-coinbase"
    zcash.write_text(zcash.read_text().replace('["t"]', '["z"]'))
    assert run_cli(["utxo", "validate", zcash]) == 0


def test_missing_file_exits_3(capsys):
    assert run_cli(["utxo", "validate", "/nonexistent/file.jsonl"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "io-failure"


def test_utxo_graph_export(fixture_dir, tmp_path):
    out = tmp_path / "edges.csv"
    code = run_cli(["utxo", "graph", fixture_dir / "six_tx_network.jsonl",
                    "--kind", "tx", "--from", 1, "--to", 2,
                    "--subsidy", 600_000_000, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "source,target,weight_num,weight_den,attr_json"
    assert len(lines) == 1 + 6


@pytest.mark.parametrize("kind", ["tx", "address"])
def test_utxo_graph_of_a_coinbase_only_window_writes_a_header(fixture_dir, tmp_path,
                                                              kind):
    out = tmp_path / "edges.csv"
    assert run_cli(["utxo", "graph", fixture_dir / "six_tx_network.jsonl",
                    "--kind", kind, "--from", 0, "--to", 0,
                    "--subsidy", 600_000_000, "--out", out]) == 0
    assert out.read_text() == "source,target,weight_num,weight_den,attr_json\n"


def test_chainlet_matrices(fixture_dir, tmp_path):
    occ, amt = tmp_path / "occ.csv", tmp_path / "amt.csv"
    code = run_cli(["chainlet", fixture_dir / "amount_network.jsonl",
                    "--N", 3, "--window", "1:1", "--subsidy", 1_200_000_000,
                    "--out", f"{occ},{amt}"])
    assert code == 0
    assert occ.read_text() == "0,2,0\n1,1,1\n1,0,0\n"
    assert amt.read_text().splitlines()[0] == "0,358000000,0"


def test_account_graph(fixture_dir, tmp_path):
    out = tmp_path / "account.csv"
    code = run_cli(["account", "graph", fixture_dir / "account_table.jsonl",
                    "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 6


TOKEN_A = "0x4afca6926e5ae3e5b19d7148f0c5b7fcb5859aba"  # alice, nonce 0
TOKEN_B = "0xad34a78e6cbd267ecd64b95316b8dfe84acddcb9"  # bob, nonce 1


def test_account_tokens_script(fixture_dir, capsys):
    """Two deploys, an idempotent redeploy and four transfers: one edge
    list per token, keyed by contract address."""
    assert run_cli(["account", "tokens", fixture_dir / "token_script.jsonl"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8f23d64bfb3adabfffc0f96b31644d88ce0c2ae4da94b35f8b821343ebb6df23"
    rows = {token: [(e["source"], e["target"], e["weight_num"], e["attrs"]["tx"])
                    for e in json.loads(edges)]
            for token, edges in json.loads(out).items()}
    assert rows == {
        TOKEN_A: [("alice", "carol", "5", ""), ("alice", "carol", "300", "tx1"),
                  ("carol", "dave", "120", "tx2")],
        TOKEN_B: [("bob", "carol", "50", "tx3")],
    }


def test_ripple_trust_and_report(fixture_dir, tmp_path, capsys):
    code = run_cli(["ripple", "trust", "--trust", fixture_dir / "trust_graph.csv"])
    assert code == 0
    assert "gateway" in capsys.readouterr().out
    code = run_cli(["ripple", "report", "--trust", fixture_dir / "trust_graph.csv"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["trust_lines"] == 5
    assert sum(report["net_positions"]["USD"].values()) == 0


def test_ripple_pay_script(tmp_path, capsys):
    script = tmp_path / "pay.jsonl"
    cmds = [
        {"op": "create_account", "address": "s", "xrp": 100_000_000},
        {"op": "create_account", "address": "d", "xrp": 100_000_000},
        {"op": "set_trust", "lender": "d", "borrower": "s", "currency": "USD",
         "limit": 100, "no_ripple": False},
        {"op": "pay", "account": "s", "destination": "d",
         "amount": {"currency": "USD", "value": 40}},
    ]
    script.write_text("".join(json.dumps(c) + "\n" for c in cmds))
    code = run_cli(["ripple", "pay", script])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert all(json.loads(line)["ok"] for line in out)


def test_iota_derive_and_bundle(capsys):
    code = run_cli(["iota", "derive", "--seed-trytes", "LEDGER" + "9" * 75,
                    "--index", 1, "--level", 2, "--checksum"])
    derived = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(derived["address"]) == 90 and derived["key_trytes"] == 4374

    code = run_cli(["iota", "bundle", "--inputs", "A1:2:60,A2:2:40",
                    "--outputs", "A5:100"])
    bundle = json.loads(capsys.readouterr().out)
    assert code == 0
    assert bundle["transactions"] == 5
    assert sum(bundle["values"]) == 0


def test_iota_grow_script(tmp_path):
    script = tmp_path / "grow.jsonl"
    cmds = [
        {"op": "attach_bundle", "as": "t1",
         "inputs": [{"address": "a1", "level": 1, "amount": 100}],
         "outputs": [{"address": "r1", "amount": 100}]},
        {"op": "milestone"},
    ]
    script.write_text("".join(json.dumps(c) + "\n" for c in cmds))
    out, log = tmp_path / "tangle.csv", tmp_path / "log.jsonl"
    code = run_cli(["iota", "grow", script, "--genesis", '{"a1": 100}',
                    "--out", out, "--log", log])
    assert code == 0
    assert out.read_text().splitlines()[0] == \
        "tx_hash,epoch,value,bundle,tag,address,branch,trunk"
    events = [json.loads(l) for l in log.read_text().splitlines()]
    assert events[-1]["result"]["balances"] == {"a1": 0, "r1": 100}


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(["generate", "utxo", "--seed", 42, "--count", 100,
                    "--out", a]) == 0
    assert run_cli(["generate", "utxo", "--seed", 42, "--count", 100,
                    "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args,sha256", [
    (["ripple", "--seed", 0], "b22220bb907fc0bb9bacf7c85ad2bc25ceed43ef4af6653d5194b7a7d1b60206"),
    (["ripple", "--seed", 7], "27d52e0f80154752e8892de85b7aad596c8bbf8aa48f5bb0dddb86da3e8eab15"),
    (["iota", "--seed", 0, "--count", 20],
     "dc6ada7b42d68fe255654acfdec21768d75965835551924c88db06f2ffb5c192"),
    (["iota", "--seed", 7, "--count", 20],
     "11cff6c7eb9320302d9ae333b15af47ad62260116adb6d2368861034328915f0"),
], ids=["ripple-0", "ripple-7", "iota-0", "iota-7"])
def test_generate_trust_graph_and_tangle_bytes(capsysbinary, args, sha256):
    assert run_cli(["generate", *args]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == sha256


def test_generate_ends_every_line_and_writes_nothing_for_no_records(tmp_path):
    empty, three = tmp_path / "empty.jsonl", tmp_path / "three.jsonl"
    assert run_cli(["generate", "account", "--count", 0, "--out", empty]) == 0
    assert empty.read_bytes() == b""
    assert run_cli(["generate", "account", "--count", 3, "--out", three]) == 0
    data = three.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 3


def test_replay_ripple_logs_rejections(tmp_path, capsys):
    script = tmp_path / "s.jsonl"
    script.write_text(json.dumps(
        {"op": "pay", "account": "ghost", "destination": "d",
         "amount": {"currency": "USD", "value": 1}}) + "\n")
    code = run_cli(["ripple", "pay", script, "--keep-going"])
    line = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 0  # with --keep-going, rejected ops are logged, not fatal
    assert line["ok"] is False


def test_cross_process_determinism_under_hash_randomization(tmp_path):
    # identical bytes even when the interpreter's hash seed differs
    outs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"h{hashseed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "ledgergraph.cli", "generate", "utxo",
             "--seed", "9", "--count", "120", "--out", str(out / "u.jsonl")],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "ledgergraph.cli", "utxo", "graph",
             str(out / "u.jsonl"), "--kind", "address",
             "--out", str(out / "edges.csv")],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "u.jsonl").read_bytes() +
                    (out / "edges.csv").read_bytes())
    assert outs[0] == outs[1]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ledgergraph.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("utxo", "account", "ripple", "iota", "chainlet", "generate"):
        assert sub in proc.stdout
    assert "replay" not in proc.stdout


@pytest.mark.parametrize("args", [["replay", "s.jsonl", "--kind", "ripple"],
                                  ["iota", "milestone", "s.jsonl"],
                                  ["iota", "snapshot", "s.jsonl"]])
def test_removed_subcommands_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# sha256 of the tangle CSV that `iota milestone` and `iota snapshot` wrote
# for this fixture and genesis; the script's own final line now does it
@pytest.mark.parametrize("op,digest", [
    ("milestone", "1ed7a772227dd4fb88dc547d5edd775cb8144bbf6b2ff002f3d30c0d581155ab"),
    ("snapshot", "ec4a99aa55f43d2b487dc8107dc0444e7d561a851aceeb96b8ca20a00a599862"),
])
def test_grow_with_a_closing_milestone_or_snapshot_line(tmp_path, op, digest):
    script = tmp_path / "s.jsonl"
    script.write_text((FIXTURES / "tangle_double_spend.jsonl").read_text()
                      + json.dumps({"op": op}) + "\n")
    out = tmp_path / "tangle.csv"
    assert run_cli(["iota", "grow", script, "--genesis", '{"a1": 100, "funder": 1000}',
                    "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -- strict readers ---------------------------------------------------------------

UTXO_LINE = ('{"id":"c","block":0,"coinbase":true,'
             '"outputs":[{"amount":%s,"address":"m"}]}\n')
ACCOUNT_LINE = ('{"from":"a1","to":"a2","amount":%s,"nonce":0,"block":1,'
                '"index":0}\n')
COINBASE = '{"id":"c","block":0,"coinbase":true,"outputs":[{"amount":1,"address":"m"}]}\n'


def reader_command(kind, src, out):
    """The CLI call that reads src with the UTXO or the account reader."""
    if kind == "utxo":
        return ["utxo", "validate", str(src), "--subsidy", "600000000"]
    return ["account", "graph", str(src), "--out", str(out)]


@pytest.mark.parametrize("kind,line", [("utxo", UTXO_LINE), ("account", ACCOUNT_LINE)])
@pytest.mark.parametrize("amount", ["1.5", '"7"', "true", "null", "[1]"])
def test_non_integer_amount_is_rejected(tmp_path, capsys, kind, line, amount):
    src = tmp_path / "in.jsonl"
    src.write_text(line % amount)
    code = run_cli(reader_command(kind, src, tmp_path / "out.csv"))
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "bad-amount"
    assert err["message"].startswith("line 1:")


@pytest.mark.parametrize("text,code,line", [
    (COINBASE + '{"id": \n', "bad-json", 2),
    ('\n{"id":"c","block":0,"coinbase":true,"outputs":5}\n', "bad-record", 2),
    ('{"id":"c","block":0,"coinbase":true,"outputs":[5]}\n', "bad-record", 1),
    ('{"block":0,"coinbase":true,"outputs":[]}\n', "bad-record", 1),
    (COINBASE.replace("true", "1"), "bad-record", 1),
    (COINBASE.replace('"coinbase":true', '"inputs":[]'), "bad-record", 1),
    (COINBASE + COINBASE.replace('"m"', '"\\ud800"'), "bad-json", 2),
])
def test_malformed_utxo_record_names_its_line(tmp_path, capsys, text, code, line):
    src = tmp_path / "in.jsonl"
    src.write_text(text)
    assert run_cli(["utxo", "validate", src]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == code
    assert err["message"].startswith(f"line {line}:")


def test_malformed_script_command_names_its_line(tmp_path, capsys):
    script = tmp_path / "s.jsonl"
    script.write_text(
        '{"op": "create_account", "address": "a", "xrp": 100000000}\n'
        '{"op": "set_trust", "lender": "a", "borrower": "b", "currency": "USD",'
        ' "limit": null}\n')
    assert run_cli(["ripple", "pay", script, "--keep-going"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-amount"
    assert err["message"].startswith("line 2:")


MUTANT_VALUES = [None, 1.5, "x", "", [], [1], ["x"], True, {}, 0, -1]
MUTANT_CELLS = ["", "x", "1.5", "-1", '"', "a,b"]


def _mutate(data, record):
    """Drop a key or swap a value, at the top level or inside one of the
    record's nested objects."""
    targets = [record] + [value for value in record.values()
                          if isinstance(value, dict)] + [
        item for value in record.values() if isinstance(value, list)
        for item in value if isinstance(item, dict)]
    target = data.draw(st.sampled_from(targets))
    if not target:
        return
    key = data.draw(st.sampled_from(sorted(target)))
    if data.draw(st.booleans()):
        del target[key]
    else:
        target[key] = data.draw(st.sampled_from(MUTANT_VALUES))


def _mutate_row(data, cells):
    """Drop a CSV cell or swap its text."""
    i = data.draw(st.integers(0, len(cells) - 1))
    if data.draw(st.booleans()):
        del cells[i]
    else:
        cells[i] = data.draw(st.sampled_from(MUTANT_CELLS))


# every committed fixture, with each subcommand that reads it
READERS = [
    ("account_table.jsonl", ["account", "graph", "{src}", "--out", "{out}"]),
    ("account_table.jsonl", ["account", "tokens", "{src}", "--out", "{out}"]),
    ("token_script.jsonl", ["account", "tokens", "{src}", "--out", "{out}"]),
    ("amount_network.jsonl", ["chainlet", "{src}", "--window", "1:1", "--out", "{out}"]),
    ("fold_example.jsonl", ["chainlet", "{src}", "--N", "3", "--out", "{out}"]),
    ("lineage.jsonl", ["utxo", "validate", "{src}"]),
    ("six_tx_network.jsonl", ["utxo", "validate", "{src}", "--subsidy", "600000000"]),
    ("weighted_example.jsonl", ["utxo", "graph", "{src}", "--kind", "address",
                                "--out", "{out}"]),
    ("offer_examples.jsonl", ["ripple", "offers", "{src}", "--out", "{out}"]),
    ("rippling_payment.jsonl", ["ripple", "pay", "{src}", "--keep-going",
                                "--out", "{out}"]),
    ("tangle_double_spend.jsonl", ["iota", "grow", "{src}", "--genesis",
                                   '{"a1": 100, "funder": 1000}', "--out", "{out}"]),
    ("trace_calls.jsonl", ["account", "traces", "{src}", "--out", "{out}"]),
    ("trust_graph.csv", ["ripple", "report", "--trust", "{src}", "--out", "{out}"]),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_records_exit_cleanly(tmp_path_factory, data):
    """Whatever a mutated record holds, the reader exits 0, or 2 with a
    specific error code, or 3; any other exception fails the test."""
    name, args = data.draw(st.sampled_from(READERS))
    text = (FIXTURES / name).read_text()
    if name.endswith(".csv"):
        records = list(csv.reader(io.StringIO(text)))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate_row(data, data.draw(st.sampled_from(records[1:])))
        lines = [",".join(cells) for cells in records]
    else:
        records = [json.loads(line) for line in text.splitlines()]
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, data.draw(st.sampled_from(records)))
        lines = [json.dumps(record) for record in records]
    if data.draw(st.integers(0, 9)) == 0:  # now and then, cut a line short
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
    work = tmp_path_factory.mktemp("mutant")
    src = work / name
    src.write_text("\n".join(lines) + "\n")
    paths = {"{src}": str(src), "{out}": str(work / "out")}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([paths.get(a, a) for a in args])
    assert code in (0, 2, 3)
    if code == 2:
        assert json.loads(stderr.getvalue())["error"] not in ("", "validation-error")


# -- usage errors -------------------------------------------------------------------

@pytest.mark.parametrize("action", ["trust", "report"])
def test_ripple_trust_and_report_require_a_trust_file(action, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["ripple", action])
    assert exc.value.code == 2
    assert "--trust" in capsys.readouterr().err


TRUST = FIXTURES / "trust_graph.csv"
PAYMENTS = FIXTURES / "rippling_payment.jsonl"
OFFERS = FIXTURES / "offer_examples.jsonl"
ACCOUNTS = FIXTURES / "account_table.jsonl"


@pytest.mark.parametrize("args", [
    pytest.param(["ripple", "pay", PAYMENTS, "--format", "json"], id="pay-format"),
    pytest.param(["ripple", "offers", OFFERS, "--format", "json"],
                 id="offers-format"),
    pytest.param(["ripple", "report", "--trust", TRUST, "--format", "json"],
                 id="report-format"),
    pytest.param(["account", "tokens", ACCOUNTS, "--format", "csv"],
                 id="tokens-format"),
    pytest.param(["ripple", "trust", "--trust", TRUST, "--keep-going"],
                 id="trust-keep-going"),
    pytest.param(["ripple", "offers", OFFERS, "--keep-going"],
                 id="offers-keep-going"),
    pytest.param(["ripple", "report", "--trust", TRUST, "--keep-going"],
                 id="report-keep-going"),
    pytest.param(["account", "graph", ACCOUNTS, "--budget", 5], id="graph-budget"),
    pytest.param(["account", "tokens", ACCOUNTS, "--budget", 5],
                 id="tokens-budget"),
    pytest.param(["chainlet", FIXTURES / "amount_network.jsonl", "--coinbase-row"],
                 id="chainlet-coinbase-row"),
    pytest.param(["generate", "ripple", "--count", 5], id="ripple-count"),
    pytest.param(["generate", "account", "--split-bias", 0.5],
                 id="account-split-bias"),
    pytest.param(["generate", "iota", "--reuse-p", 0.1], id="iota-reuse-p"),
])
def test_flag_the_subcommand_never_reads_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    flag = next(a for a in args[2:] if str(a).startswith("--") and a != "--trust")
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(["ripple", "trust", "--trust", TRUST, "--format", "json"],
                 id="trust-format"),
    pytest.param(["ripple", "pay", PAYMENTS, "--keep-going"], id="pay-keep-going"),
    pytest.param(["account", "graph", ACCOUNTS, "--format", "json"],
                 id="graph-format"),
    pytest.param(["account", "traces", FIXTURES / "trace_calls.jsonl",
                  "--budget", 50, "--format", "json"], id="traces-budget-format"),
])
def test_flags_the_subcommand_reads_still_apply(args, capsys):
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        json.loads(line)


# -- CSV cells ----------------------------------------------------------------------

def test_iota_grow_quotes_cells_with_commas_and_quotes(tmp_path):
    script = tmp_path / "grow.jsonl"
    cmds = [{"op": "attach_message", "address": "a,1", "tag": 'T"G',
             "tips": ["GENESIS", "GENESIS"]},
            {"op": "attach_message", "address": 'q"x', "tag": "A,B"}]
    script.write_text("".join(json.dumps(c) + "\n" for c in cmds))
    out = tmp_path / "tangle.csv"
    assert run_cli(["iota", "grow", script, "--out", out]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(), newline="")))
    assert all(len(row) == 8 for row in rows)
    assert sorted((row[4], row[5]) for row in rows[1:]) == \
        [("A,B", 'q"x'), ('T"G', "a,1")]


def test_trust_names_with_carriage_returns_survive_a_file(tmp_path, capsys):
    from ledgergraph.ripple import RippleLedger, dump_trust_csv

    led = RippleLedger()
    for name in ("a\rb", "c"):
        led.create_account(name, xrp_drops=10**9)
    led.set_trust("a\rb", "c", "USD", 10)
    trust = tmp_path / "trust.csv"
    trust.write_bytes(dump_trust_csv(led))
    assert run_cli(["ripple", "report", "--trust", trust]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trust_lines"] == 1
    assert sorted(report["net_positions"]["USD"]) == ["a\rb", "c"]


def test_ripple_offers_quotes_cells_with_commas_and_quotes(tmp_path, capsys):
    gets = {"currency": "E,R", "issuer": "is,E", "value": 7}
    pays = {"currency": 'U"D', "issuer": 'is"U', "value": 10}
    cmds = [{"op": "create_account", "address": a, "xrp": 10**9}
            for a in ("is,E", 'is"U', "o1")]
    cmds += [{"op": "set_trust", "lender": "o1", "borrower": "is,E",
              "currency": "E,R", "limit": 1000},
             {"op": "adjust_debt", "lender": "o1", "borrower": "is,E",
              "currency": "E,R", "amount": 7},
             {"op": "offer", "owner": "o1", "gets": gets, "pays": pays}]
    script = tmp_path / "offers.jsonl"
    script.write_text("".join(json.dumps(c) + "\n" for c in cmds))
    assert run_cli(["ripple", "offers", script]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows[1:] == [["E,R", "is,E", 'U"D', 'is"U', "1", "7", "10"]]


def test_open_upper_bound_and_fold_size_flags(fixture_dir, tmp_path):
    out = tmp_path / "tx.csv"
    code = run_cli(["utxo", "graph", fixture_dir / "six_tx_network.jsonl",
                    "--subsidy", 600_000_000, "--from", 2, "--out", out])
    assert code == 0
    # block 2 alone holds the three edges into t5 and t6 from block 2 txs
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[1] in ("t5", "t6") for row in rows)
    # --N 3 folds the default 20 x 20 matrix down to 3 x 3
    chainlet = ["chainlet", fixture_dir / "amount_network.jsonl",
                "--subsidy", 1_200_000_000, "--out"]
    assert run_cli([*chainlet, tmp_path / "20.csv"]) == 0
    assert run_cli([*chainlet, tmp_path / "3.csv", "--N", 3]) == 0
    full = np.array([[int(v) for v in row.split(",")]
                     for row in (tmp_path / "20.csv").read_text().splitlines()])
    assert full.shape == (20, 20)
    assert (tmp_path / "3.csv").read_bytes() == export_matrix(fold_matrix(full, 3))


# -- checked option values and trust rows --------------------------------------------

@pytest.mark.parametrize("genesis,error", [
    ("[1, 2]", "bad-record"),
    ('{"a1": 100.5, "funder": 1000}', "bad-amount"),
    ('{"a1": "100", "funder": 1000}', "bad-amount"),
    ('{"a1": true, "funder": 1000}', "bad-amount"),
    ('{"a1": null, "funder": 1000}', "bad-amount"),
    ("{bad", "bad-json"),
])
def test_genesis_map_is_checked(fixture_dir, capsys, genesis, error):
    code = run_cli(["iota", "grow", fixture_dir / "tangle_double_spend.jsonl",
                    "--genesis", genesis])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("window", ["a:b", "1:x", "2.5", "1:+2"])
def test_window_bounds_are_checked(fixture_dir, capsys, window):
    code = run_cli(["chainlet", fixture_dir / "amount_network.jsonl",
                    "--window", window])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-amount"
    assert err["message"].startswith("'--window' must be an integer")


@pytest.mark.parametrize("flag,item,error", [
    ("--inputs", "a1:1", "bad-record"),
    ("--inputs", "a1:1:100:7", "bad-record"),
    ("--inputs", "a1:1:100.5", "bad-amount"),
    ("--inputs", "a1:two:100", "bad-amount"),
    ("--outputs", "r1", "bad-record"),
    ("--outputs", "r1:1e2", "bad-amount"),
])
def test_bundle_items_are_checked(capsys, flag, item, error):
    items = {"--inputs": "a0:1:100", "--outputs": "r0:100"}
    items[flag] += "," + item
    code = run_cli(["iota", "bundle", "--inputs", items["--inputs"],
                    "--outputs", items["--outputs"]])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert err["message"].startswith(f"{flag} item {item!r}:")


@pytest.mark.parametrize("inputs,outputs,error", [
    ("a1:1:-5", "b:-5", "bad-amount"),
    ("a1:1:5", "b:-5,c:10", "bad-amount"),
    ("a1:4:5", "b:5", "bad-record"),
    ("a1:0:5", "b:5", "bad-record"),
])
def test_bundle_rejects_negative_amounts_and_bad_levels(capsys, inputs, outputs,
                                                        error):
    code = run_cli(["iota", "bundle", "--inputs", inputs, "--outputs", outputs])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("difficulty", [-1, 244, 300])
def test_pow_difficulty_outside_0_243_is_a_bad_record(tmp_path, capsys,
                                                      difficulty):
    script = tmp_path / "grow.jsonl"
    cmds = [{"op": "attach_message", "address": "a", "difficulty": d}
            for d in (1, difficulty)]
    script.write_text("".join(json.dumps(c) + "\n" for c in cmds))
    assert run_cli(["iota", "grow", script]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-record"
    assert err["message"] == (
        f"line 2: proof-of-work difficulty {difficulty} is not in 0-243")


@pytest.mark.parametrize("row,error", [
    ("a,b,USD,0,5", "bad-record"),
    ("a,b,USD,1.5,5,10", "bad-amount"),
    ("a,b,USD,0,-5,10", "bad-record"),
    ("a,c,USD,0,7,0", "bad-record"),  # a second row for the line a,c,USD
    pytest.param("a" * 140_000 + ",b,USD,0,5,10", "bad-record",
                 id="cell-past-the-csv-field-limit"),
])
def test_malformed_trust_row_names_its_line(tmp_path, capsys, row, error):
    trust = tmp_path / "trust.csv"
    trust.write_text("low,high,currency,balance,low_limit,high_limit\n"
                     f"a,c,USD,0,5,0\n{row}\n")
    assert run_cli(["ripple", "report", "--trust", trust]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert err["message"].startswith("line 3:")


@pytest.mark.parametrize("env,flags", [
    (("LEDGERGRAPH_SEED", "5"), ["account", "--seed", "0", "--count", "3"]),
    (("LEDGERGRAPH_REUSE_P", "0.5"), ["utxo", "--reuse-p", "0.0", "--count", "20"]),
])
def test_explicit_flag_wins_over_env_whatever_its_value(tmp_path, monkeypatch,
                                                        env, flags):
    plain, with_env = tmp_path / "plain", tmp_path / "with_env"
    assert run_cli(["generate", *flags, "--out", plain]) == 0
    monkeypatch.setenv(*env)
    assert run_cli(["generate", *flags, "--out", with_env]) == 0
    assert with_env.read_bytes() == plain.read_bytes()


def test_environment_and_config_change_nothing(tmp_path, monkeypatch, capsys):
    """Flags come from the command line alone: no variable changes the
    output's bytes or where it goes, and there is no --config flag."""
    monkeypatch.chdir(tmp_path)
    args = ["generate", "utxo", "--count", 20]
    assert run_cli(args) == 0
    plain = capsys.readouterr().out
    for env in (("LEDGERGRAPH_SEED", "5"), ("LEDGERGRAPH_REUSE_P", "0.5"),
                ("LEDGERGRAPH_OUT", "env.out")):
        with monkeypatch.context() as patch:
            patch.setenv(*env)
            assert run_cli(args) == 0
        assert capsys.readouterr().out == plain, env
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "f").write_text("seed=5\n")
    with pytest.raises(SystemExit) as info:
        run_cli(["--config", "f", "generate", "ripple"])
    assert info.value.code == 2


# -- the 128-bit amount bound ----------------------------------------------------------

MAX = 2**127 - 1


def _coinbase(txid, block, amount):
    return json.dumps({"id": txid, "block": block, "coinbase": True,
                       "outputs": [{"amount": amount, "address": "m"}]})


def _spend(txid, parents):
    return json.dumps({"id": txid, "block": 2,
                       "inputs": [{"txid": p, "index": 0} for p in parents],
                       "outputs": [{"amount": 1, "address": "x"}]})


FUNDED = [_coinbase("c0", 0, MAX), _coinbase("c1", 1, MAX), _coinbase("c2", 2, 0)]


@pytest.mark.parametrize("lines,subsidy", [
    ([_coinbase("c0", 0, 2**127)], 1),  # an output amount
    ([_coinbase("c0", 0, 1)], 2**127),  # the block subsidy
    (FUNDED + [_spend("t", ["c0", "c1"])], MAX),  # one transaction's fee
    (FUNDED + [_spend("t0", ["c0"]), _spend("t1", ["c1"])], MAX),  # a block's fees
], ids=["output", "subsidy", "fee", "block-fees"])
def test_amounts_past_the_bound_are_amount_overflow(tmp_path, capsys, lines,
                                                    subsidy):
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    assert run_cli(["utxo", "validate", src, "--subsidy", subsidy]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "amount-overflow"


# -- one code per rejection ------------------------------------------------------------

NOT_UTF8 = b'{"id": "\xff"}\n'
DEEP_JSON = "[" * 100_000 + "]" * 100_000
SEED_TRYTES = "LEDGER" + "9" * 75


def ripple_script(*ops):
    """A Ripple script whose accounts a and b exist, then the ops."""
    cmds = [{"op": "create_account", "address": name, "xrp": 10**9}
            for name in ("a", "b")] + list(ops)
    return "".join(json.dumps(cmd) + "\n" for cmd in cmds).encode()


NO_COINBASE_FIRST = "\n".join([
    _coinbase("c0", 0, 1),
    json.dumps({"id": "t", "block": 1, "inputs": [{"txid": "c0", "index": 0}],
                "outputs": [{"amount": 1, "address": "x"}]})]) + "\n"


@pytest.mark.parametrize("files,args,error,message", [
    pytest.param({"in.jsonl": NO_COINBASE_FIRST.encode()},
                 ["utxo", "validate", "in.jsonl"], "bad-record",
                 "block 1: block must start with its coinbase transaction",
                 id="no-coinbase-first"),
    pytest.param({"in.jsonl": NOT_UTF8}, ["utxo", "validate", "in.jsonl"],
                 "bad-record", "in.jsonl: not UTF-8 text", id="ledger-not-utf8"),
    pytest.param({"trust.csv": NOT_UTF8}, ["ripple", "report", "--trust", "trust.csv"],
                 "bad-record", "trust.csv: not UTF-8 text", id="trust-not-utf8"),
    pytest.param({}, ["chainlet", FIXTURES / "amount_network.jsonl", "--N", 0],
                 "bad-record", "N must lie in 1-1000, got 0", id="N-0"),
    pytest.param({}, ["chainlet", FIXTURES / "amount_network.jsonl",
                      "--N", 10_000_000_000],
                 "bad-record", "N must lie in 1-1000, got 10000000000", id="N-too-big"),
    pytest.param({}, ["iota", "derive", "--seed-trytes", SEED_TRYTES, "--level", 5],
                 "bad-record", "private key: security level 5 is not 1, 2 or 3",
                 id="derive-level-5"),
    pytest.param({}, ["iota", "derive", "--seed-trytes", SEED_TRYTES[:80]],
                 "bad-seed", "seed must be exactly 81 trytes", id="derive-short-seed"),
    pytest.param({"in.jsonl": DEEP_JSON.encode()}, ["utxo", "validate", "in.jsonl"],
                 "bad-json", "line 1: nested too deeply", id="ledger-deep-json"),
    pytest.param({"in.jsonl": (UTXO_LINE % ("9" * 5000)).encode()},
                 ["utxo", "validate", "in.jsonl"],
                 "bad-json", "line 1: number too long to decode", id="ledger-long-number"),
    pytest.param({"in.jsonl": (COINBASE + COINBASE.replace('"block":0', '"block":1'))
                  .encode()}, ["utxo", "validate", "in.jsonl"],
                 "duplicate-txid", "duplicate transaction id c", id="utxo-duplicate-txid"),
    pytest.param({"t.jsonl": b'{"op":"deploy","owner":"a","symbol":"X","supply":5,'
                             b'"nonce":0}\n{"op":"deploy","owner":"a","symbol":"Y",'
                             b'"supply":5,"nonce":0}\n'},
                 ["account", "tokens", "t.jsonl"], "address-collision",
                 "address collision at 0x", id="token-address-collision"),
    pytest.param({"t.jsonl": b'{"op":"transfer","token":"0x0","from":"a","to":"b",'
                             b'"amount":1}\n'},
                 ["account", "tokens", "t.jsonl"], "unknown-token",
                 "no token contract at 0x0", id="token-unknown-token"),
    pytest.param({"in.jsonl": (COINBASE + "".join(
        '{"id":"t","block":0,"coinbase":false,"inputs":[{"txid":"%s","index":0}],'
        '"outputs":[{"amount":1,"address":"m"}]}\n' % src for src in ("c", "t")))
                  .encode()}, ["utxo", "validate", "in.jsonl"],
                 "duplicate-txid", "duplicate transaction id t",
                 id="utxo-duplicate-txid-in-block"),
    pytest.param({"in.jsonl": COINBASE.replace('"block":0', '"block":1').encode()},
                 ["utxo", "validate", "in.jsonl"],
                 "height-mismatch", "block height 1 does not extend tip -1",
                 id="utxo-height-mismatch"),
    pytest.param({"trust.csv": b"a,b,USD," + b"9" * 5000 + b",0,0\n"},
                 ["ripple", "report", "--trust", "trust.csv"],
                 "bad-amount", "line 1: 'balance' must be an integer", id="trust-long-cell"),
    pytest.param({"s.jsonl": b""}, ["iota", "grow", "s.jsonl", "--genesis", "[" * 100_000],
                 "bad-json", "--genesis: nested too deeply", id="genesis-deep-json"),
    pytest.param({"s.jsonl": b'{"op": "paay"}\n'},
                 ["ripple", "pay", "s.jsonl", "--keep-going"],
                 "bad-record", "line 1: unknown ripple op 'paay'", id="ripple-unknown-op"),
    pytest.param({"s.jsonl": ripple_script({"op": "create_account", "address": "a"})},
                 ["ripple", "pay", "s.jsonl"], "account-exists",
                 "operation 2 (create_account): account a exists",
                 id="ripple-account-exists"),
    pytest.param({"s.jsonl": ripple_script({"op": "set_trust", "lender": "a",
                                            "borrower": "c", "currency": "USD",
                                            "limit": 10})},
                 ["ripple", "pay", "s.jsonl"], "unknown-account",
                 "operation 2 (set_trust): unknown account c",
                 id="ripple-unknown-account"),
    pytest.param({"s.jsonl": ripple_script({"op": "set_trust", "lender": "a",
                                            "borrower": "a", "currency": "USD",
                                            "limit": 10})},
                 ["ripple", "pay", "s.jsonl"], "self-trust",
                 "operation 2 (set_trust): cannot trust oneself", id="ripple-self-trust"),
    pytest.param({"s.jsonl": ripple_script({"op": "adjust_debt", "lender": "a",
                                            "borrower": "b", "currency": "USD",
                                            "amount": 5})},
                 ["ripple", "pay", "s.jsonl"], "no-line",
                 "operation 2 (adjust_debt): no USD line between a and b",
                 id="ripple-no-line"),
    pytest.param({"s.jsonl": ripple_script({"op": "pay", "account": "a",
                                            "destination": "b", "partial": True,
                                            "amount": {"currency": "XRP",
                                                       "value": 5}})},
                 ["ripple", "pay", "s.jsonl"], "partial-xrp",
                 "operation 2 (pay): direct XRP payments cannot be partial",
                 id="ripple-partial-xrp"),
    *[pytest.param({"s.jsonl": ripple_script({"op": "pay", "account": "a",
                                             "destination": "a",
                                             "amount": {"currency": currency,
                                                        "value": 5}})},
                   ["ripple", "pay", "s.jsonl"], "bad-record",
                   "line 3: a payment's account and destination must differ",
                   id=f"ripple-self-payment-{currency}")
      for currency in ("XRP", "USD")],
    pytest.param({"s.jsonl": ripple_script(
        {"op": "create_account", "address": "c"},
        {"op": "pay", "account": "a", "destination": "b", "paths": [["a", "c", "b"]],
         "amount": {"currency": "USD", "value": 5}})},
                 ["ripple", "pay", "s.jsonl"], "dried-up-path",
                 "operation 3 (pay): no USD line between a and c",
                 id="ripple-path-without-a-line"),
    pytest.param({"s.jsonl": ripple_script({"op": "cancel_offer", "owner": "a",
                                            "sequence": 7})},
                 ["ripple", "pay", "s.jsonl"], "unknown-offer",
                 "operation 2 (cancel_offer): no offer 7 owned by a",
                 id="ripple-unknown-offer"),
    pytest.param({"s.jsonl": b'{"op": "atach_message"}\n'}, ["iota", "grow", "s.jsonl"],
                 "bad-record", "line 1: unknown tangle op 'atach_message'",
                 id="tangle-unknown-op"),
    pytest.param({"t.jsonl": b'{"op":"bogus"}\n'}, ["account", "tokens", "t.jsonl"],
                 "bad-record", "line 1: unknown token op 'bogus'", id="token-unknown-op"),
    pytest.param({"t.jsonl": b'{"op":"txx"}\n'}, ["account", "traces", "t.jsonl"],
                 "bad-record", "line 1: unknown trace op 'txx'", id="trace-unknown-op"),
    pytest.param({"in.jsonl": (ACCOUNT_LINE % "-7").encode()},
                 ["account", "graph", "in.jsonl"],
                 "bad-record", "line 1: amount must be non-negative",
                 id="account-negative-amount"),
    pytest.param({"s.jsonl": b'{"op":"create_account","address":"a","xrp":-5}\n'},
                 ["ripple", "pay", "s.jsonl"],
                 "bad-record", "line 1: XRP balance must be >= 0",
                 id="ripple-negative-xrp"),
    pytest.param({"t.jsonl": b'{"op":"deploy","owner":"a","symbol":"X","supply":-5,'
                             b'"nonce":0}\n'},
                 ["account", "tokens", "t.jsonl"],
                 "bad-record", "line 1: token supply must be non-negative",
                 id="token-negative-supply"),
    pytest.param({"in.jsonl": b'{"id":"c","block":0,"coinbase":true,"outputs":[]}\n'},
                 ["utxo", "validate", "in.jsonl"], "bad-record",
                 "line 1: coinbase transaction needs at least one output",
                 id="utxo-coinbase-without-outputs"),
    pytest.param({"in.jsonl": b'{"id":"c","block":0,"coinbase":true,"inputs":[{"txid":'
                              b'"x","index":0}],"outputs":[{"amount":1,"address":"m"}]}\n'},
                 ["utxo", "validate", "in.jsonl"], "bad-record",
                 "line 1: coinbase transaction must have no inputs",
                 id="utxo-coinbase-with-inputs"),
    pytest.param({"in.jsonl": (COINBASE + '{"id":"t","block":0,"inputs":[{"txid":"c",'
                               '"index":0},{"txid":"c","index":0}],"outputs":[{"amount":1,'
                               '"address":"x"}]}\n').encode()},
                 ["utxo", "validate", "in.jsonl"], "bad-record",
                 "line 2: input references must be distinct", id="utxo-input-twice"),
    pytest.param({"in.jsonl": (COINBASE + COINBASE.replace('"c"', '"d"')).encode()},
                 ["utxo", "validate", "in.jsonl"], "bad-record",
                 "block 0: only one coinbase per block, at position 0",
                 id="utxo-two-coinbases"),
    pytest.param({"in.jsonl": COINBASE.replace('"coinbase":true', '"coinbase":true,'
                                               '"kinds":{"out":["y"]}').encode()},
                 ["utxo", "validate", "in.jsonl"], "bad-record",
                 "line 1: kinds 'out' must hold 't' or 'z', got ['y']", id="utxo-kind-y"),
    pytest.param({"in.jsonl": (COINBASE + COINBASE.replace('"c"', '"c1"').replace(
        '"block":0', '"block":1') + "".join(
        '{"id":"%s","block":1,"inputs":[{"txid":"c","index":0}],'
        '"outputs":[{"amount":1,"address":"x"}]}\n' % txid for txid in ("t1", "t2")))
                  .encode()}, ["utxo", "validate", "in.jsonl"],
                 "double-spend", "('c', 0) is already spent",
                 id="utxo-double-spend-in-block"),
    pytest.param({"in.jsonl": (COINBASE.replace('"address":"m"', '"address":"m",'
                                                '"visible":false')
                               + COINBASE.replace('"c"', '"c1"').replace('"block":0',
                                                                         '"block":1')
                               + '{"id":"t","block":1,"inputs":[{"txid":"c","index":0}],'
                               '"outputs":[{"amount":1,"address":"x"}]}\n').encode()},
                 ["utxo", "graph", "in.jsonl", "--kind", "address", "--from", 1],
                 "hidden-amount", "input ('c', 0) has a hidden amount",
                 id="utxo-hidden-input-before-the-window"),
    pytest.param({"trust.csv": b"low,high,currency,balance,low_limit,high_limit\n"
                               b"b,a,USD,0,1,1\n"},
                 ["ripple", "report", "--trust", "trust.csv"], "bad-record",
                 "line 2: low account must sort below high account",
                 id="trust-low-above-high"),
    pytest.param({"s.jsonl": ripple_script({"op": "set_trust", "lender": "a",
                                            "borrower": "b", "currency": "USD",
                                            "limit": -1})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: trust limit must be >= 0", id="ripple-negative-limit"),
    pytest.param({"s.jsonl": ripple_script({"op": "offer", "owner": "a",
                                            "gets": {"currency": "USD", "issuer": "a",
                                                     "value": 5},
                                            "pays": {"currency": "USD", "issuer": "a",
                                                     "value": 6}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: offer sides must differ in (currency, issuer)",
                 id="ripple-offer-equal-sides"),
    pytest.param({"s.jsonl": ripple_script({"op": "offer", "owner": "a",
                                            "gets": {"currency": "XRP", "value": 0},
                                            "pays": {"currency": "USD", "issuer": "b",
                                                     "value": 6}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: offer amounts must be positive", id="ripple-offer-zero"),
    pytest.param({"s.jsonl": b'{"op":"create_account","address":"a"}\n'
                             b'{"op":"offer","owner":"a","gets":{"currency":"XRP",'
                             b'"issuer":"zz","value":5},"pays":{"currency":"XRP",'
                             b'"value":6}}\n'},
                 ["ripple", "offers", "s.jsonl"], "bad-record",
                 "line 2: an XRP amount has no issuer, got 'zz'",
                 id="ripple-offer-xrp-with-issuer"),
    pytest.param({"s.jsonl": ripple_script({"op": "pay", "account": "a",
                                            "destination": "b",
                                            "amount": {"currency": "XRP", "issuer": "b",
                                                       "value": 5}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: an XRP amount has no issuer, got 'b'",
                 id="ripple-pay-xrp-with-issuer"),
    pytest.param({"s.jsonl": ripple_script({"op": "pay", "account": "a",
                                            "destination": "b",
                                            "amount": {"currency": "USD", "value": 5},
                                            "send_max": {"currency": "XRP",
                                                         "issuer": "a", "value": 9}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: an XRP amount has no issuer, got 'a'",
                 id="ripple-send-max-xrp-with-issuer"),
    pytest.param({"s.jsonl": ripple_script({"op": "write_check", "sender": "a",
                                            "receiver": "b",
                                            "amount": {"currency": "XRP", "issuer": "a",
                                                       "value": 5}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: an XRP amount has no issuer, got 'a'",
                 id="ripple-check-xrp-with-issuer"),
    pytest.param({"s.jsonl": ripple_script({"op": "pay", "account": "a",
                                            "destination": "b",
                                            "amount": {"currency": "XRP", "value": 0}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: payment must be positive", id="ripple-xrp-pay-zero"),
    pytest.param({"s.jsonl": ripple_script({"op": "create_escrow", "sender": "a",
                                            "receiver": "b", "drops": 0,
                                            "release_time": 0})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: escrow amount must be positive", id="ripple-escrow-zero"),
    pytest.param({"s.jsonl": ripple_script(
        {"op": "create_escrow", "sender": "a", "receiver": "b", "drops": 5,
         "release_time": 0, "expiration": 5},
        {"op": "finish_escrow", "escrow_id": 1, "now": 6})},
                 ["ripple", "pay", "s.jsonl"], "escrow-error",
                 "operation 3 (finish_escrow): expired", id="ripple-finish-expired-escrow"),
    pytest.param({"s.jsonl": ripple_script(
        {"op": "write_check", "sender": "a", "receiver": "b",
         "amount": {"currency": "XRP", "value": 5}},
        {"op": "cash_check", "check_id": 1, "amount": 6})},
                 ["ripple", "pay", "s.jsonl"], "check-error",
                 "operation 3 (cash_check): cash amount 6 exceeds remaining 5",
                 id="ripple-cash-past-the-face-value"),
    pytest.param({"s.jsonl": ripple_script({"op": "pay", "account": "a",
                                            "destination": "b", "paths": [["a", 1]],
                                            "amount": {"currency": "USD", "value": 5}})},
                 ["ripple", "pay", "s.jsonl"], "bad-record",
                 "line 3: 'paths' must be a list of names, got ['a', 1]",
                 id="ripple-path-of-non-names"),
    pytest.param({"s.jsonl": ripple_script(
        {"op": "create_account", "address": "c"},
        {"op": "pay", "account": "a", "destination": "b", "paths": [["a", "c", "b"]],
         "partial": True, "amount": {"currency": "USD", "value": 5}})},
                 ["ripple", "pay", "s.jsonl"], "dried-up-path",
                 "operation 3 (pay): no USD line between a and c",
                 id="ripple-partial-path-without-a-line"),
    pytest.param({"s.jsonl": b'{"op":"attach_message","address":"m","tips":"GENESIS"}\n'},
                 ["iota", "grow", "s.jsonl"], "bad-record",
                 "line 1: 'tips' must be a list of names, got 'GENESIS'",
                 id="tangle-tips-not-a-list"),
    pytest.param({"s.jsonl": b'{"op":"attach_message","address":"m",'
                             b'"tips":["GENESIS","GENESIS","GENESIS"]}\n'},
                 ["iota", "grow", "s.jsonl"], "bad-record",
                 "line 1: 'tips' must name a trunk and a branch", id="tangle-three-tips"),
    pytest.param({"s.jsonl": b'{"op":"select_tips","strategy":"bogus"}\n'},
                 ["iota", "grow", "s.jsonl"], "bad-record",
                 "line 1: unknown tip selection strategy 'bogus'",
                 id="tangle-unknown-strategy-one-tip"),
    pytest.param({"in.jsonl": ACCOUNT_LINE.replace('"nonce":0', '"nonce":-1')
                  .replace("%s", "1").encode()},
                 ["account", "graph", "in.jsonl"], "bad-record",
                 "line 1: nonce must be non-negative", id="account-negative-nonce"),
    pytest.param({"t.jsonl": b'{"op":"deploy","owner":"a","symbol":"X","supply":5,'
                             b'"nonce":0}\n{"op":"transfer","token":"0x'
                             + hashlib.sha256(b"a:0").hexdigest()[:40].encode()
                             + b'","from":"a","to":"b","amount":-1}\n'},
                 ["account", "tokens", "t.jsonl"], "bad-record",
                 "line 2: token amount must be non-negative", id="token-transfer-minus-1"),
    pytest.param({"t.jsonl": b'{"op":"behavior","address":"c","calls":[{"to":"d",'
                             b'"kind":"x"}]}\n{"op":"tx","id":"t","from":"a","to":"c"}\n'},
                 ["account", "traces", "t.jsonl"], "bad-record",
                 "line 2: unknown call kind 'x'", id="trace-call-kind-x"),
])
def test_each_rejection_has_its_own_code(tmp_path, monkeypatch, capsys, files, args,
                                         error, message):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_cli(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert err["message"].startswith(message)


def test_tip_rejections_are_logged_with_their_own_codes(tmp_path):
    """A tip that names no transaction, or one the double spend
    invalidated, is a logged rejection with its own code, and the replay
    goes on."""
    script = tmp_path / "s.jsonl"
    script.write_text((FIXTURES / "tangle_double_spend.jsonl").read_text() + "".join(
        json.dumps(cmd) + "\n" for cmd in [
            {"op": "attach_message", "address": "m4", "tips": ["x3", "GENESIS"]},
            {"op": "attach_message", "address": "m5", "tips": ["GENESIS", "9" * 80 + "A"]},
            {"op": "attach_message", "address": "m6", "tips": ["GENESIS", "GENESIS"]}]))
    log = tmp_path / "log.jsonl"
    assert run_cli(["iota", "grow", script, "--genesis", '{"a1": 100, "funder": 1000}',
                    "--out", tmp_path / "t.csv", "--log", log]) == 0
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert [e["error"]["code"] for e in events[-3:-1]] == ["invalid-tip", "unknown-tip"]
    assert events[-1]["ok"]


def test_select_tips_logs_its_pick_and_names_no_head(tmp_path, capsys):
    """A script's select_tips logs the trunk and branch it picks; it
    attaches nothing, so an 'as' on it is a bad record."""
    cmds = [{"op": "attach_message", "address": name, "tips": ["GENESIS", "GENESIS"]}
            for name in ("m1", "m2")]
    cmds += [{"op": "select_tips", "strategy": "oldest-first"},
             {"op": "select_tips", "seed": 3}]
    script, log = tmp_path / "s.jsonl", tmp_path / "log.jsonl"
    script.write_text("".join(json.dumps(cmd) + "\n" for cmd in cmds))
    assert run_cli(["iota", "grow", script, "--out", tmp_path / "t.csv",
                    "--log", log]) == 0
    events = [json.loads(line) for line in log.read_text().splitlines()]
    heads = [e["result"]["head"] for e in events[:2]]
    picks = [[e["result"]["trunk"], e["result"]["branch"]] for e in events[2:]]
    assert picks[0] == heads
    assert sorted(picks[1]) == sorted(heads)
    with script.open("a") as fh:
        fh.write(json.dumps({"op": "select_tips", "as": "s"}) + "\n")
    assert run_cli(["iota", "grow", script]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "bad-record",
        "message": "line 5: select_tips makes no head for 'as' to name"}


@pytest.mark.parametrize("change,message", [
    ({"amount": {"currency": "USD", "value": 0}}, "line 16: amount must be positive"),
    ({"paths": [["sarah"]]},
     "line 16: a path needs at least sender and destination"),
    ({"paths": [["sarah", "bob"], ["tim", "john"]]},
     "line 16: a path must run from the payment's account to its destination"),
], ids=["zero-value", "one-name-path", "path-off-the-payment"])
def test_malformed_payment_stops_the_replay(tmp_path, capsys, change, message):
    """A payment that no path could ever carry is a bad record, not a
    dried-up path logged as a rejection."""
    cmds = [json.loads(line) for line in PAYMENTS.read_text().splitlines()]
    cmds[-1].update(change, partial=False)
    script = tmp_path / "pay.jsonl"
    script.write_text("".join(json.dumps(c) + "\n" for c in cmds))
    assert run_cli(["ripple", "pay", script]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "bad-record", "message": message}


@pytest.mark.parametrize("op", [
    {"op": "offer", "owner": "a", "gets": {"currency": "USD", "value": 10},
     "pays": {"currency": "XRP", "value": 100}},
    {"op": "offer", "owner": "b", "gets": {"currency": "XRP", "value": 100},
     "pays": {"currency": "USD", "value": 10}},
    {"op": "write_check", "sender": "a", "receiver": "b",
     "amount": {"currency": "USD", "value": 10}},
], ids=["offer-gets", "offer-pays", "check"])
def test_issuerless_offer_or_check_amount_is_a_bad_record(tmp_path, capsys, op):
    """An offer or check moves issued currency on the line with its
    issuer, so an amount without one is a bad record, even while a holds
    10 USD of gw's paper."""
    script, log = tmp_path / "s.jsonl", tmp_path / "log.jsonl"
    script.write_bytes(ripple_script(
        {"op": "create_account", "address": "gw", "xrp": 10**9},
        {"op": "set_trust", "lender": "a", "borrower": "gw", "currency": "USD",
         "limit": 100},
        {"op": "adjust_debt", "lender": "a", "borrower": "gw", "currency": "USD",
         "amount": 10}, op))
    assert run_cli(["ripple", "pay", script, "--out", log]) == 2
    assert not log.exists()
    assert json.loads(capsys.readouterr().err) == {
        "error": "bad-record",
        "message": "line 6: a USD amount in an offer or check must name its issuer"}


def test_rejected_payment_exits_2_naming_the_operation(tmp_path, capsys):
    """Without --keep-going, the first rejection is reported like every
    other exit 2; the whole log is still written."""
    out = tmp_path / "log.jsonl"
    assert run_cli(["ripple", "pay", PAYMENTS, "--trust", FIXTURES / "trust_graph.csv",
                    "--out", out]) == 2
    first = next(e for e in map(json.loads, out.read_text().splitlines())
                 if not e["ok"])
    assert json.loads(capsys.readouterr().err) == {
        "error": first["error"]["code"],
        "message": f"operation {first['index']} (pay): {first['error']['message']}"}


def test_command_line_bytes_that_are_not_utf8_hash_as_those_bytes(capsys):
    # an undecodable argv byte arrives as a lone surrogate
    assert run_cli(["iota", "bundle", "--inputs", "\udcff:1:5", "--outputs", "b:5",
                    "--tag", "\udcfe"]) == 0
    assert json.loads(capsys.readouterr().out)["transactions"] == 2
