"""Shared ledger primitives: the integer amount bound, the JSONL record
checks every reader uses, and the uniform graph export containers used by
every chain model.

Amounts are plain ints in the smallest subunit of their currency family
(satoshi, wei, drop, iota token), bounds-checked against MAX_AMOUNT where
they enter a ledger, and all ratio-valued weights are exact rationals, so
conservation invariants can be tested with plain equality.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "LedgerError",
    "AmountOverflowError",
    "BadJsonError",
    "BadRecordError",
    "BadAmountError",
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


def jsonl_records(lines: Iterable[str | dict]) -> Iterator[tuple[int, Any]]:
    """(1-based line number, decoded value) for every non-blank line.
    Already decoded dicts pass through, numbered by position."""
    for line_no, line in enumerate(lines, 1):
        if isinstance(line, dict):
            yield line_no, line
            continue
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadJsonError(f"line {line_no}: {exc.msg} at column {exc.colno}") from None
        yield line_no, record


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Prefix where the record came from to a BadRecordError raised inside
    the block; a ValueError from a record's own invariants becomes a
    BadRecordError."""
    try:
        yield
    except BadRecordError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except ValueError as exc:
        raise BadRecordError(f"{where}: {exc}") from None


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
    base-10 digits with an optional minus sign, else BadAmountError."""
    if not re.fullmatch(r"-?[0-9]+", cell):
        raise BadAmountError(f"{name!r} must be an integer, got {cell!r}")
    return int(cell)


def _check_bound(value: int) -> int:
    if not -MAX_AMOUNT <= value <= MAX_AMOUNT:
        raise AmountOverflowError(f"amount {value} exceeds the integer boundary")
    return value


# --------------------------------------------------------------------------
# Graph containers

def canonical_json(attrs: Mapping[str, Any]) -> str:
    """Stable JSON for attribute maps: sorted keys, compact separators."""
    return json.dumps(attrs, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@dataclass(frozen=True)
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

    With multi=False, (source, target, currency-attribute) triples must be
    unique; duplicates raise at append time.
    """

    multi: bool = True
    edges: list[Edge] = field(default_factory=list)
    _seen: set[tuple[str, str, Any]] = field(default_factory=set, repr=False)

    def add(self, edge: Edge) -> None:
        if not self.multi:
            key = (edge.source, edge.target, edge.attr_dict.get("currency"))
            if key in self._seen:
                raise ValueError(f"duplicate edge {key} in simple graph")
            self._seen.add(key)
        self.edges.append(edge)

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


def _edge_row(edge: Edge) -> tuple[str, str, str, str, str]:
    if edge.weight is None:
        num = den = ""
    else:
        w = Fraction(edge.weight)
        num, den = str(w.numerator), str(w.denominator)
    return edge.source, edge.target, num, den, canonical_json(edge.attr_dict)


def _attr_hash(attr_json: str) -> str:
    return hashlib.sha256(attr_json.encode("utf-8")).hexdigest()


def _csv_quote(cell: str) -> str:
    if any(c in cell for c in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def export_edge_list(graph: EdgeList | Iterable[Edge], fmt: str = "csv") -> bytes:
    """Serialize a graph deterministically; re-export is byte-identical.

    Rows are sorted by (source, target, attribute hash) so two builds of
    the same ledger produce identical bytes regardless of build order.
    """
    edges = graph.edges if isinstance(graph, EdgeList) else list(graph)
    rows = sorted(
        (_edge_row(e) for e in edges),
        key=lambda r: (r[0], r[1], _attr_hash(r[4]), r[2], r[3]),
    )
    if fmt == "csv":
        out = io.StringIO()
        out.write(_EDGE_HEADER + "\n")
        for row in rows:
            out.write(",".join(_csv_quote(c) for c in row) + "\n")
        return out.getvalue().encode("utf-8")
    if fmt == "json":
        payload = [
            {"source": s, "target": t, "weight_num": n, "weight_den": d,
             "attrs": json.loads(a)}
            for s, t, n, d, a in rows
        ]
        return (json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def export_hypergraph(graph: Hypergraph, fmt: str = "csv") -> bytes:
    """Hyperedges as (label, position, member) rows or JSON objects."""
    rows = []
    for h in sorted(graph.edges, key=lambda h: (h.label, h.members)):
        for pos, member in enumerate(h.members):
            rows.append((h.label, str(pos), member))
    if fmt == "csv":
        out = io.StringIO()
        out.write("label,position,member\n")
        for row in rows:
            out.write(",".join(_csv_quote(c) for c in row) + "\n")
        return out.getvalue().encode("utf-8")
    if fmt == "json":
        payload = [
            {"label": h.label, "members": list(h.members),
             "step_attrs": dict(h.step_attrs)}
            for h in sorted(graph.edges, key=lambda h: (h.label, h.members))
        ]
        return (json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def export_matrix(matrix) -> bytes:
    """N rows of N comma-separated integers, LF line endings."""
    lines = []
    for row in matrix:
        lines.append(",".join(str(int(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
