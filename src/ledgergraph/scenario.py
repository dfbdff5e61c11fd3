"""Scripted scenario replay: JSONL commands applied in order against a
Ripple or tangle state, with an event log recording every transition,
including rejected operations (which leave state untouched).

A rejected Ripple operation is checked to have written nothing: every
ledger write bumps RippleLedger.writes, so the count must read the same
after the rejection as before it. A write that was later undone fails
the check too. A rejection that wrote is a program fault and raises
AssertionError (also under python -O).

A malformed command (bad JSON, a missing key, a wrong-typed field or an
op the script kind does not know) is not a rejection: it stops the
replay with a BadJsonError, BadRecordError or BadAmountError naming its
line.
"""

from __future__ import annotations

import json
from functools import partial
from typing import BinaryIO, Iterable, Iterator

from .core import BadRecordError, LedgerError, at_line, get_field, jsonl_records
from .ripple import CurrencyValue, PaymentSpec, RippleLedger
from .iota.bundles import build_bundle
from .iota.tangle import GENESIS_HASH, TangleState

__all__ = ["replay_ripple", "replay_tangle", "dump_log"]


def _cv(obj) -> CurrencyValue:
    return CurrencyValue(get_field(obj, "currency"),
                         get_field(obj, "issuer", str, None),
                         get_field(obj, "value", int))


def _names(value, key: str) -> tuple[str, ...]:
    if type(value) is not list or not all(type(v) is str for v in value):
        raise BadRecordError(f"{key!r} must be a list of names, got {value!r}")
    return tuple(value)


def _ripple_step(led: RippleLedger, cmd: dict):
    op, f = cmd["op"], partial(get_field, cmd)
    if op == "create_account":
        led.create_account(f("address"), f("xrp", int, 0))
        return {"address": cmd["address"]}
    if op == "set_trust":
        state = led.set_trust(f("lender"), f("borrower"), f("currency"),
                              f("limit", int),
                              no_ripple=f("no_ripple", bool, True))
        return {"deleted": state is None}
    if op == "adjust_debt":
        led.adjust_line_debt(f("lender"), f("borrower"), f("currency"),
                             f("amount", int))
        return {}
    if op == "pay":
        send_max = f("send_max", dict, None)
        spec = PaymentSpec(
            account=f("account"), destination=f("destination"),
            amount=_cv(f("amount", dict)),
            send_max=_cv(send_max) if send_max else None,
            pathset=tuple(_names(p, "paths") for p in f("paths", list, [])),
            tf_no_direct_ripple=f("no_direct_ripple", bool, False),
            tf_partial_payment=f("partial", bool, False),
        )
        return led.pay(spec)
    if op == "offer":
        return led.create_offer(f("owner"), _cv(f("gets", dict)), _cv(f("pays", dict)))
    if op == "cancel_offer":
        led.cancel_offer(f("owner"), f("sequence", int))
        return {}
    if op == "write_check":
        check = led.write_check(f("sender"), f("receiver"), _cv(f("amount", dict)),
                                f("expiration", int, None))
        return {"check_id": check.check_id}
    if op == "cash_check":
        cashed = led.cash_check(f("check_id", int), f("amount", int),
                                f("now", int, 0))
        return {"cashed": cashed}
    if op == "cancel_check":
        led.cancel_check(f("check_id", int), f("by"))
        return {}
    if op == "create_escrow":
        escrow = led.create_escrow(f("sender"), f("receiver"), f("drops", int),
                                   f("release_time", int), f("expiration", int, None))
        return {"escrow_id": escrow.escrow_id}
    if op == "finish_escrow":
        return {"released": led.finish_escrow(f("escrow_id", int), f("now", int))}
    if op == "cancel_escrow":
        return {"refunded": led.cancel_escrow(f("escrow_id", int), f("now", int))}
    raise BadRecordError(f"unknown ripple op {op!r}")


def _rejection(i: int, op: str, exc: LedgerError) -> dict:
    return {"index": i, "op": op, "ok": False,
            "error": {"code": exc.code, "message": str(exc)}}


def replay_ripple(lines: Iterable[str],
                  ledger: RippleLedger | None = None) -> tuple[RippleLedger, list[dict]]:
    led = ledger or RippleLedger()
    log: list[dict] = []
    for i, (line_no, cmd) in enumerate(_records(lines)):
        writes = led.writes
        try:
            with at_line(line_no):
                result = _ripple_step(led, cmd)
            log.append({"index": i, "op": cmd["op"], "ok": True, "result": result})
        except BadRecordError:
            raise
        except LedgerError as exc:
            if led.writes != writes:
                raise AssertionError(
                    f"rejected {cmd['op']} on line {line_no} wrote to the ledger"
                ) from exc
            log.append(_rejection(i, cmd["op"], exc))
    return led, log


def _tangle_step(state: TangleState, cmd: dict, aliases: dict[str, str]):
    op, f = cmd["op"], partial(get_field, cmd)
    timestamp, alias = f("timestamp", int, 0), f("as", str, None)
    if op == "attach_bundle":
        bundle = build_bundle(
            [(get_field(i, "address"), get_field(i, "level", int, 2),
              get_field(i, "amount", int)) for i in f("inputs", list)],
            [(get_field(o, "address"), get_field(o, "amount", int))
             for o in f("outputs", list)],
            tag=f("tag", str, ""), timestamp=timestamp)
        tips = _tips(state, cmd, aliases)
        head = state.attach(bundle, tips, difficulty=f("difficulty", int, 0))
        result = {"head": head, "bundle": bundle.bundle_hash}
    elif op == "attach_message":
        tips = _tips(state, cmd, aliases)
        head = state.attach_message(f("address"), tips, tag=f("tag", str, ""),
                                    timestamp=timestamp, data=f("data", str, ""),
                                    difficulty=f("difficulty", int, 0))
        result = {"head": head}
    elif op == "milestone":
        head = state.issue_milestone(_tips(state, cmd, aliases), timestamp=timestamp)
        result = {"milestone": head, "invalid": sorted(state.invalid),
                  "balances": dict(sorted(state.balances.items()))}
    elif op == "promote":
        head = state.promote(aliases.get(f("tx"), cmd["tx"]), timestamp=timestamp)
        result = {"head": head}
    elif op == "select_tips":
        if alias is not None:
            raise BadRecordError("select_tips makes no head for 'as' to name")
        trunk, branch = state.select_tips(f("strategy", str, "uniform-random"),
                                          f("seed", int, 0))
        return {"trunk": trunk, "branch": branch}
    else:
        raise BadRecordError(f"unknown tangle op {op!r}")
    if alias:
        aliases[alias] = head
    return result


def _tips(state: TangleState, cmd: dict, aliases: dict[str, str]) -> tuple[str, str]:
    if "tips" not in cmd:
        return state.select_tips("oldest-first")
    tips = _names(cmd["tips"], "tips")
    if len(tips) != 2:
        raise BadRecordError(f"'tips' must name a trunk and a branch, got {tips!r}")
    return (aliases.get(tips[0], tips[0]), aliases.get(tips[1], tips[1]))


def replay_tangle(lines: Iterable[str],
                  genesis_balances: dict[str, int] | None = None,
                  ) -> tuple[TangleState, list[dict]]:
    st = TangleState(genesis_balances or {})
    aliases: dict[str, str] = {"GENESIS": GENESIS_HASH}
    log: list[dict] = []
    for i, (line_no, cmd) in enumerate(_records(lines)):
        if cmd["op"] == "snapshot":
            balances, st = st.snapshot()
            log.append({"index": i, "op": "snapshot", "ok": True,
                        "result": {"balances": dict(sorted(balances.items()))}})
            continue
        try:
            with at_line(line_no):
                result = _tangle_step(st, cmd, aliases)
            log.append({"index": i, "op": cmd["op"], "ok": True, "result": result})
        except BadRecordError:
            raise
        except LedgerError as exc:
            log.append(_rejection(i, cmd["op"], exc))
    return st, log


def _records(lines: Iterable[str | dict]) -> Iterator[tuple[int, dict]]:
    """(line number, command) per script line; every command needs a
    string "op"."""
    for line_no, cmd in jsonl_records(lines):
        with at_line(line_no):
            get_field(cmd, "op")
        yield line_no, cmd


def dump_log(log: Iterable[dict], fh: BinaryIO) -> None:
    """Write an event log to a binary file, one sorted-key JSON line each."""
    fh.writelines(json.dumps(e, sort_keys=True).encode() + b"\n" for e in log)
