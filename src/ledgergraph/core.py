"""Shared ledger primitives: the integer amount bound, the one reader of
record files, the JSONL record checks every reader uses, and the uniform
graph export containers used by every chain model.

Amounts are plain ints in the smallest subunit of their currency family
(satoshi, wei, drop, iota token), bounds-checked against MAX_AMOUNT where
they enter a ledger, and all ratio-valued weights are exact rationals, so
conservation invariants can be tested with plain equality.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import AbstractContextManager, contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Iterator

__all__ = [
    "LedgerError",
    "AmountOverflowError",
    "BadJsonError",
    "BadRecordError",
    "BadAmountError",
    "read_lines",
    "json_value",
    "jsonl_records",
    "at_line",
    "naming",
    "get_field",
    "int_cell",
    "Edge",
    "EdgeList",
    "Hyperedge",
    "Hypergraph",
    "export_edge_list",
    "export_hypergraph",
    "export_matrix",
    "canonical_json",
    "csv_row",
]

# Signed 128-bit bound; Python ints never wrap, so the overflow contract is
# enforced explicitly at this artifact boundary.
MAX_AMOUNT = 2**127 - 1


class LedgerError(Exception):
    """Base class for every validation or contract error in the package."""

    code = "ledger-error"


class AmountOverflowError(LedgerError):
    code = "amount-overflow"


class BadJsonError(LedgerError):
    code = "bad-json"


class BadRecordError(LedgerError):
    """A record with a missing key or a field of the wrong type."""

    code = "bad-record"


class BadAmountError(BadRecordError):
    """An integer field (amount, nonce, height, index) that holds anything
    but a JSON integer; floats, bools and numeric strings are never
    truncated or coerced."""

    code = "bad-amount"


# --------------------------------------------------------------------------
# JSONL records

_REQUIRED = object()


def read_lines(path: str, error: type[LedgerError] = BadRecordError) -> Iterator[str]:
    """The lines of a UTF-8 record file, read one at a time as they are
    asked for. Line ends are kept as written, so a \\r inside a quoted CSV
    cell survives. A file that is not UTF-8 raises ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def json_value(text: str, where: str) -> Any:
    """The JSON value that text holds, else BadJsonError prefixed with
    where the text came from. A \\u escape of a lone surrogate is bad JSON
    too, since no UTF-8 output can hold it, and so are nesting too deep and
    a number too long to decode."""
    try:
        value = json.loads(text)
        if "\\u" in text:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise BadJsonError(f"{where}: {exc.msg} at column {exc.colno}") from None
    except UnicodeEncodeError:
        raise BadJsonError(f"{where}: lone surrogate in a \\u escape") from None
    except ValueError:  # an integer past int()'s digit limit
        raise BadJsonError(f"{where}: number too long to decode") from None
    except RecursionError:
        raise BadJsonError(f"{where}: nested too deeply to decode") from None
    return value


def jsonl_records(lines: Iterable[str | dict]) -> Iterator[tuple[int, Any]]:
    """(1-based line number, decoded value) for every non-blank line.
    Already decoded dicts pass through, numbered by position."""
    for line_no, line in enumerate(lines, 1):
        if isinstance(line, dict):
            yield line_no, line
        elif line.strip():
            yield line_no, json_value(line, f"line {line_no}")


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Prefix where the record came from to a BadRecordError raised inside
    the block, a record's own invariants included."""
    try:
        yield
    except BadRecordError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def at_line(line_no: int) -> AbstractContextManager[None]:
    """naming() for the 1-based line of a record file."""
    return naming(f"line {line_no}")


def get_field(record: Any, key: str, kind: type = str, default: Any = _REQUIRED) -> Any:
    """``record[key]``, which must be exactly of type ``kind`` (JSON values
    have no subclasses, and a bool is not an int here). An absent key, or
    a null where the default is None, yields ``default``; with no default
    it raises BadRecordError."""
    if type(record) is not dict:
        raise BadRecordError(f"expected an object, got {record!r}")
    value = record.get(key, default)
    if value is _REQUIRED:
        raise BadRecordError(f"missing key {key!r}")
    if type(value) is not kind and value is not default:
        if kind is int:
            raise BadAmountError(f"{key!r} must be an integer, got {value!r}")
        raise BadRecordError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def int_cell(name: str, cell: str) -> int:
    """An integer field written as text (a CSV cell, a command-line item):
    base-10 digits with an optional minus sign, no more than int()
    converts, else BadAmountError."""
    if re.fullmatch(r"-?[0-9]+", cell):
        with suppress(ValueError):  # past int()'s digit limit
            return int(cell)
    raise BadAmountError(f"{name!r} must be an integer, got {cell!r}")


def _check_bound(value: int) -> int:
    if not -MAX_AMOUNT <= value <= MAX_AMOUNT:
        raise AmountOverflowError(f"amount {value} exceeds the integer boundary")
    return value


# --------------------------------------------------------------------------
# Graph containers

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False)


def canonical_json(value: Any) -> str:
    """Stable JSON for attribute maps and exports: sorted keys, compact
    separators, non-ASCII text kept as is."""
    return _CANONICAL.encode(value)


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    weight: Fraction | int | None = None
    attrs: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def make(source: str, target: str, weight: Fraction | int | None = None,
             **attrs: Any) -> "Edge":
        return Edge(source, target, weight, tuple(sorted(attrs.items())))

    @property
    def attr_dict(self) -> dict[str, Any]:
        return dict(self.attrs)


@dataclass
class EdgeList:
    """Uniform export container for the directed/weighted graph types.
    Each builder's docstring says whether its graph has parallel edges."""

    edges: list[Edge] = field(default_factory=list)

    def nodes(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.edges:
            seen.setdefault(e.source)
            seen.setdefault(e.target)
        return list(seen)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Hyperedge:
    """Ordered hyperedge; member order reflects call/path order."""

    members: tuple[str, ...]
    label: str = ""
    step_attrs: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("hyperedge needs at least 2 members")


@dataclass
class Hypergraph:
    edges: list[Hyperedge] = field(default_factory=list)

    def nodes(self) -> list[str]:
        seen: dict[str, None] = {}
        for h in self.edges:
            for m in h.members:
                seen.setdefault(m)
        return list(seen)


# --------------------------------------------------------------------------
# Deterministic export

_EDGE_HEADER = "source,target,weight_num,weight_den,attr_json"

# Equal attribute values of one of these types serialise alike, so maps
# of them can key the export memo; 0.0 and -0.0, or (1, True) and (1, 1), do not.
_MEMO_TYPES = frozenset({str, int, bool, type(None)})


def _csv_quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_row(cells: Iterable[str]) -> str:
    """One CSV line (no newline); a cell with a comma, double quote,
    newline or carriage return is quoted, inner quotes doubled."""
    return ",".join(map(_csv_quote, cells))


def export_edge_list(graph: EdgeList | Iterable[Edge], fmt: str = "csv") -> bytes:
    """Serialize a graph deterministically; re-export is byte-identical.

    Each edge is a row (source, target, weight_num, weight_den, attr_json)
    with the weight reduced (empty cells for None) and attr_json from
    canonical_json. Rows sort as the string tuples (source, target,
    sha256 hex of attr_json, weight_num, weight_den, attr_json), whatever
    the build order. CSV cells are quoted as csv_row quotes them. JSON is
    the canonical_json list of the rows as objects, the attribute map
    under "attrs". Each distinct attribute map's JSON, hash and quoted
    cell are computed once per call.
    """
    edges = graph.edges if isinstance(graph, EdgeList) else list(graph)
    memo: dict[tuple, tuple[str, str, str]] = {}  # typed attrs -> hash, json, cell
    rows = []
    attrs = cached = None
    for e in edges:
        if e.attrs is not attrs:
            attrs = e.attrs
            key = tuple([(k, type(v), v) for k, v in attrs])
            if not all(t in _MEMO_TYPES for _k, t, _v in key):
                key = None
            cached = memo.get(key)
            if cached is None:
                attr_json = canonical_json(dict(attrs))
                cached = (hashlib.sha256(attr_json.encode("utf-8")).hexdigest(),
                          attr_json, _csv_quote(attr_json))
                if key is not None:
                    memo[key] = cached
        w = e.weight
        if w is None:
            num = den = ""
        elif type(w) is int:
            num, den = str(w), "1"
        else:
            w = w if type(w) is Fraction else Fraction(w)
            num, den = str(w.numerator), str(w.denominator)
        rows.append((e.source, e.target, cached[0], num, den, cached[1], cached[2]))
    rows.sort()
    if fmt == "csv":
        return "".join([_EDGE_HEADER + "\n"] + [
            f"{_csv_quote(s)},{_csv_quote(t)},{num},{den},{cell}\n"
            for s, t, _h, num, den, _a, cell in rows]).encode("utf-8")
    if fmt == "json":
        # canonical_json of the row objects, keys in sorted order, with
        # each row's attr_json spliced in as its "attrs" value
        return ("[" + ",".join([
            f'{{"attrs":{a},"source":{canonical_json(s)},'
            f'"target":{canonical_json(t)},"weight_den":"{d}","weight_num":"{n}"}}'
            for s, t, _h, n, d, a, _c in rows]) + "]\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def export_hypergraph(graph: Hypergraph, fmt: str = "csv") -> bytes:
    """Hyperedges as (label, position, member) rows or JSON objects."""
    edges = sorted(graph.edges, key=lambda h: (h.label, h.members))
    if fmt == "csv":
        return "".join(["label,position,member\n"] + [
            csv_row((h.label, str(pos), member)) + "\n"
            for h in edges for pos, member in enumerate(h.members)]).encode("utf-8")
    if fmt == "json":
        payload = [
            {"label": h.label, "members": list(h.members),
             "step_attrs": dict(h.step_attrs)}
            for h in edges
        ]
        return (canonical_json(payload) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def export_matrix(matrix) -> bytes:
    """N rows of N comma-separated integers, LF line endings."""
    lines = []
    for row in matrix:
        lines.append(",".join(str(int(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
