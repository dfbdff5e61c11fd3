"""ledgergraph command-line entry point.

Subcommands: utxo validate|graph, chainlet, account graph|tokens|traces,
ripple trust|pay|offers|report, iota derive|bundle|grow and generate
utxo|account|ripple|iota. Exit codes: 0 success, 2 rejected input (a
LedgerError's code and message as JSON on stderr), 3 I/O error; any other
exception is a bug. All output is deterministic for fixed inputs, flags
and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import BinaryIO, ContextManager

from . import account as account_mod
from . import chainlets as chainlet_mod
from . import generate as gen
from . import scenario
from . import utxo as utxo_mod
from . import utxo_graphs as ug
from .core import (BadRecordError, LedgerError, csv_row, encode_rows,
                   export_edge_list, export_hypergraph, export_matrix, get_field,
                   int_cell, json_value, naming, read_lines)
from .iota import bundles as iota_bundles
from .iota import keys as iota_keys
from .ripple import dump_trust_csv, load_trust_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


class EmptyRangeError(LedgerError):
    code = "empty-range"


def _output(path: str | None) -> ContextManager[BinaryIO]:
    """The binary file to write: stdout when there is no path or it is '-'."""
    if path in (None, "-"):
        return nullcontext(sys.stdout.buffer)
    return open(path, "wb")


def _write_bytes(path: str | None, data: bytes) -> None:
    with _output(path) as fh:
        fh.write(data)


def _parse_range(text: str | None) -> tuple[int | None, int | None]:
    """--window A:B, with either bound left open, or one block A."""
    lo, sep, hi = (text or "").partition(":")
    if not sep:
        hi = lo
    return (int_cell("--window", lo) if lo else None,
            int_cell("--window", hi) if hi else None)


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_utxo(args: argparse.Namespace) -> int:
    ledger = utxo_mod.load_jsonl(read_lines(args.file), subsidy=args.subsidy)
    if args.action == "validate":
        print(json.dumps(ledger.summary(), sort_keys=True))
        return EXIT_OK
    start, end = args.start, args.end
    if not ug.txs_in_range(ledger, start, end):
        raise EmptyRangeError(f"no transactions in blocks [{start}, {end}]")
    build = {"tx": ug.build_transaction_graph, "address": ug.build_address_graph,
             "bipartite": ug.build_bipartite_graph}[args.kind]
    _write_bytes(args.out, export_edge_list(build(ledger, start, end), args.format))
    return EXIT_OK


def _cmd_chainlet(args: argparse.Namespace) -> int:
    ledger = utxo_mod.load_jsonl(read_lines(args.file), subsidy=args.subsidy)
    start, end = _parse_range(args.window)
    snap = chainlet_mod.snapshot_from_ledger(ledger, start, end)
    matrices = chainlet_mod.build_matrices(snap, args.N)
    occ_path, amt_path = (args.out.split(",", 1) if args.out and "," in args.out
                          else (args.out, None))
    _write_bytes(occ_path, export_matrix(matrices.occurrence))
    if amt_path:
        _write_bytes(amt_path, export_matrix(matrices.amount))
    return EXIT_OK


def _cmd_account(args: argparse.Namespace) -> int:
    lines = read_lines(args.file)
    if args.action == "graph":
        graph = account_mod.build_account_graph(account_mod.load_jsonl(lines))
        _write_bytes(args.out, export_edge_list(graph, args.format))
    elif args.action == "tokens":
        ledger = account_mod.replay_token_script(lines)
        graphs = account_mod.build_token_graph(ledger.transfers)
        out = {token: export_edge_list(graphs[token], "json").decode().strip()
               for token in sorted(graphs)}
        _write_bytes(args.out, (json.dumps(out, sort_keys=True) + "\n").encode())
    else:  # traces
        traces = account_mod.run_trace_script(lines, call_budget=args.budget)
        hg = account_mod.build_trace_hypergraph(traces)
        _write_bytes(args.out, export_hypergraph(hg, args.format))
    return EXIT_OK


def _cmd_ripple(args: argparse.Namespace) -> int:
    ledger = load_trust_csv(read_lines(args.trust)) if args.trust else None
    if args.action == "trust":
        _write_bytes(args.out, export_edge_list(ledger.trust_graph(), args.format))
        return EXIT_OK
    if args.action == "pay":
        led, log = scenario.replay_ripple(read_lines(args.script), ledger)
        with _output(args.out) as fh:
            scenario.dump_log(log, fh)
        first = next((e for e in log if not e["ok"]), None)
        if first is None or args.keep_going:
            return EXIT_OK
        _print_error(first["error"]["code"],
                     f"operation {first['index']} ({first['op']}): "
                     f"{first['error']['message']}")
        return EXIT_VALIDATION
    if args.action == "offers":
        led, log = scenario.replay_ripple(read_lines(args.script), ledger)
        rows = ["gets_currency,gets_issuer,pays_currency,pays_issuer,"
                "sequence,gets_remaining,pays_remaining"]
        for (gk, pk, seq, grem, prem) in led.book_rows():
            rows.append(csv_row([gk[0], gk[1] or "", pk[0], pk[1] or "",
                                 str(seq), str(grem), str(prem)]))
        _write_bytes(args.out, encode_rows(rows))
        return EXIT_OK
    # report
    currencies = sorted({state.currency for state in ledger.states.values()})
    report = {
        "accounts": len(ledger.accounts),
        "trust_lines": len(ledger.states),
        "currencies": currencies,
        "net_positions": {c: dict(sorted(ledger.net_positions(c).items()))
                          for c in currencies},
    }
    _write_bytes(args.out, (json.dumps(report, sort_keys=True) + "\n").encode())
    return EXIT_OK


def _cmd_iota(args: argparse.Namespace) -> int:
    if args.action == "derive":
        subseed = iota_keys.derive_subseed(args.seed_trytes, args.index)
        key = iota_keys.derive_private_key(subseed, args.level)
        address = iota_keys.derive_address(key, with_checksum=args.checksum)
        print(json.dumps({"index": args.index, "level": args.level,
                          "address": address, "key_trytes": len(key)},
                         sort_keys=True))
        return EXIT_OK
    if args.action == "bundle":
        inputs = _bundle_items("--inputs", args.inputs,
                               ("address", "level", "amount"))
        outputs = _bundle_items("--outputs", args.outputs, ("address", "amount"))
        bundle = iota_bundles.build_bundle(inputs, outputs, tag=args.tag)
        print(json.dumps({
            "bundle": bundle.bundle_hash,
            "transactions": len(bundle.transactions),
            "values": [tx.value for tx in bundle.transactions],
        }, sort_keys=True))
        return EXIT_OK
    # grow runs a script against a tangle
    state, log = scenario.replay_tangle(read_lines(args.script),
                                        genesis_balances=_genesis(args.genesis))
    _write_bytes(args.out, state.export_csv())
    if args.log:
        with _output(args.log) as fh:
            scenario.dump_log(log, fh)
    return EXIT_OK


def _bundle_items(flag: str, text: str, fields: tuple[str, ...]) -> list[tuple]:
    """The comma-separated items of --inputs or --outputs, each an address
    and integer cells joined by ':', checked like CSV cells; an error
    names the item."""
    items = []
    for item in text.split(","):
        with naming(f"{flag} item {item!r}"):
            cells = item.split(":")
            if len(cells) != len(fields):
                raise BadRecordError(f"expected {':'.join(fields)}")
            items.append((cells[0], *map(int_cell, fields[1:], cells[1:])))
    return items


def _genesis(text: str | None) -> dict[str, int]:
    """The --genesis address->balance map, checked like a JSONL record:
    a JSON object whose values are JSON integers."""
    if not text:
        return {}
    balances = json_value(text, "--genesis")
    if type(balances) is not dict:
        raise BadRecordError(f"--genesis: expected an object, got {balances!r}")
    return {address: get_field(balances, address, int) for address in balances}


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.chain == "utxo":
        spec = gen.UtxoSpec(tx_count=args.count, split_bias=args.split_bias,
                            address_reuse_p=args.reuse_p)
        lines = utxo_mod.dump_jsonl(gen.generate_utxo(spec, args.seed))
    elif args.chain == "account":
        lines = account_mod.dump_jsonl(gen.generate_account_txs(
            gen.AccountSpec(tx_count=args.count), args.seed))
    elif args.chain == "ripple":
        led = gen.generate_trust_graph(gen.RippleSpec(), args.seed)
        _write_bytes(args.out, dump_trust_csv(led))
        return EXIT_OK
    else:  # iota
        state, _totals = gen.generate_tangle(
            gen.TangleSpec(cycles=args.count, snapshot_every=10**9), args.seed)
        _write_bytes(args.out, state.export_csv())
        return EXIT_OK
    _write_bytes(args.out, encode_rows(lines))
    return EXIT_OK


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgergraph",
        description="Validate ledger data and build blockchain network graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("utxo", help="UTXO ledger validation and graphs")
    pa = p.add_subparsers(dest="action", required=True)
    v = pa.add_parser("validate")
    v.add_argument("file")
    v.add_argument("--subsidy", type=int, default=utxo_mod.INITIAL_SUBSIDY)
    g = pa.add_parser("graph")
    g.add_argument("file")
    g.add_argument("--kind", choices=("tx", "address", "bipartite"), default="tx")
    g.add_argument("--from", dest="start", type=int, default=None)
    g.add_argument("--to", dest="end", type=int, default=None)
    g.add_argument("--subsidy", type=int, default=utxo_mod.INITIAL_SUBSIDY)
    g.add_argument("--out", default=None)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_utxo)

    c = sub.add_parser("chainlet", help="occurrence/amount matrices")
    c.add_argument("file")
    c.add_argument("--N", type=int, default=chainlet_mod.DEFAULT_N)
    c.add_argument("--window", help="block range A:B")
    c.add_argument("--out", help="occ.csv[,amt.csv]")
    c.add_argument("--subsidy", type=int, default=utxo_mod.INITIAL_SUBSIDY)
    c.set_defaults(func=_cmd_chainlet)

    a = sub.add_parser("account", help="account/token/trace graphs")
    aa = a.add_subparsers(dest="action", required=True)
    for name in ("graph", "tokens", "traces"):
        pp = aa.add_parser(name)
        pp.add_argument("file")
        pp.add_argument("--out", default=None)
        if name != "tokens":  # tokens always writes JSON
            pp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "traces":
            pp.add_argument("--budget", type=int,
                            default=account_mod.DEFAULT_CALL_BUDGET)
    a.set_defaults(func=_cmd_account)

    r = sub.add_parser("ripple", help="trust graph and payment scenarios")
    ra = r.add_subparsers(dest="action", required=True)
    for name in ("trust", "pay", "offers", "report"):
        pp = ra.add_parser(name)
        pp.add_argument("--trust", help="trust graph CSV", default=None,
                        required=name in ("trust", "report"))
        if name in ("pay", "offers"):
            pp.add_argument("script")
        pp.add_argument("--out", default=None)
        if name == "trust":
            pp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "pay":
            pp.add_argument("--keep-going", action="store_true")
    r.set_defaults(func=_cmd_ripple)

    i = sub.add_parser("iota", help="derivation, bundles and tangle scripts")
    ia = i.add_subparsers(dest="action", required=True)
    d = ia.add_parser("derive")
    d.add_argument("--seed-trytes", required=True)
    d.add_argument("--index", type=int, default=0)
    d.add_argument("--level", type=int, default=2)
    d.add_argument("--checksum", action="store_true")
    b = ia.add_parser("bundle")
    b.add_argument("--inputs", required=True, help="addr:level:amount,...")
    b.add_argument("--outputs", required=True, help="addr:amount,...")
    b.add_argument("--tag", default="")
    gr = ia.add_parser("grow")
    gr.add_argument("script")
    gr.add_argument("--genesis", help="JSON address->balance map")
    gr.add_argument("--out", default=None)
    gr.add_argument("--log", default=None)
    i.set_defaults(func=_cmd_iota)

    gn = sub.add_parser("generate", help="synthetic ledgers")
    gc = gn.add_subparsers(dest="chain", required=True)
    for name in ("utxo", "account", "ripple", "iota"):
        pp = gc.add_parser(name)
        pp.add_argument("--seed", type=int, default=0)
        if name != "ripple":  # the trust graph has a fixed size
            pp.add_argument("--count", type=int, default=1000)
        if name == "utxo":
            pp.add_argument("--split-bias", type=float, default=0.75)
            pp.add_argument("--reuse-p", type=float, default=0.0)
        pp.add_argument("--out", default=None)
    gn.set_defaults(func=_cmd_generate)
    return parser


def _print_error(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}, sort_keys=True),
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        _print_error("io-failure", str(exc))
        return EXIT_IO
    except LedgerError as exc:
        # rejected input; any other exception is a bug, left to its traceback
        _print_error(exc.code, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
