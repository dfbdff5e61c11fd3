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
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import AbstractContextManager, contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, islice
from operator import eq
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
    "encode_rows",
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


def read_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 record file, read one at a time as they are
    asked for. Line ends are kept as written, so a \\r inside a quoted CSV
    cell survives. A non-UTF-8 file raises BadRecordError naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise BadRecordError(f"{path}: not UTF-8 text ({exc.reason})") from None


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
    """One row of an EdgeList, as its ``edges`` view builds it."""

    source: str
    target: str
    weight: Fraction | int | None = None
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def attr_dict(self) -> dict[str, Any]:
        return dict(self.attrs)


class EdgeList:
    """Uniform export container for the directed/weighted graph types.
    Each builder's docstring says whether its graph has parallel edges.

    The edges are five parallel columns, one entry per edge: ``sources``,
    ``targets``, ``nums`` (the weight's numerator, None when unweighted),
    ``dens`` (its positive denominator, 1 when unweighted) and ``attrs``
    (the sorted (key, value) tuple, which builders share by identity
    among the rows of one record). A weight is stored reduced, as the
    ``Fraction`` of (num, den) would hold it. ``edges`` reads the rows
    back as Edge values."""

    __slots__ = ("sources", "targets", "nums", "dens", "attrs")

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self.sources: list[str] = []
        self.targets: list[str] = []
        self.nums: list[int | None] = []
        self.dens: list[int] = []
        self.attrs: list[tuple[tuple[str, Any], ...]] = []
        for e in edges:
            self._append(e.source, e.target, e.weight, e.attrs)

    def add(self, source: str, target: str, weight: Fraction | int | None = None,
            **attrs: Any) -> None:
        """Append one edge; its attribute map is the keyword arguments."""
        self._append(source, target, weight, tuple(sorted(attrs.items())))

    def _append(self, source: str, target: str, weight: Fraction | int | None,
                attrs: tuple[tuple[str, Any], ...]) -> None:
        if weight is None:
            num, den = None, 1
        elif type(weight) is int:
            num, den = weight, 1
        else:
            w = weight if type(weight) is Fraction else Fraction(weight)
            num, den = w.numerator, w.denominator
        self.sources.append(source)
        self.targets.append(target)
        self.nums.append(num)
        self.dens.append(den)
        self.attrs.append(attrs)

    def extend(self, sources: Sequence[str], targets: Sequence[str],
               nums: Sequence[int | None],
               attrs: Sequence[tuple[tuple[str, Any], ...]],
               dens: Sequence[int] | None = None) -> None:
        """Append edges given as equal-length columns. Each (num, den)
        must already be reduced with den > 0; dens default to all 1s, as
        for int or no weights."""
        if dens is None:
            dens = [1] * len(nums)
        if not len(sources) == len(targets) == len(nums) == len(attrs) == len(dens):
            raise ValueError("edge columns differ in length")
        self.sources.extend(sources)
        self.targets.extend(targets)
        self.nums.extend(nums)
        self.dens.extend(dens)
        self.attrs.extend(attrs)

    @property
    def edges(self) -> "EdgeRows":
        return EdgeRows(self)

    def nodes(self) -> list[str]:
        seen: dict[str, None] = {}
        for s, t in zip(self.sources, self.targets):
            seen.setdefault(s)
            seen.setdefault(t)
        return list(seen)

    def __len__(self) -> int:
        return len(self.sources)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.sources, self.targets, self.nums, self.dens, self.attrs) == (
            other.sources, other.targets, other.nums, other.dens, other.attrs)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(edges={list(self.edges)!r})"


def _row(source: str, target: str, num: int | None, den: int,
         attrs: tuple[tuple[str, Any], ...]) -> Edge:
    weight = num if num is None or den == 1 else Fraction(num, den)
    return Edge(source, target, weight, attrs)


class EdgeRows(Sequence[Edge]):
    """Read-only view of an EdgeList's rows. Each Edge is built when it is
    read: its weight is an int when the denominator is 1, a Fraction
    otherwise, and None when unweighted."""

    __slots__ = ("_graph",)

    def __init__(self, graph: EdgeList) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.sources)

    def __getitem__(self, i: int | slice) -> Edge | list[Edge]:
        g = self._graph
        if isinstance(i, slice):
            return list(map(_row, g.sources[i], g.targets[i], g.nums[i], g.dens[i],
                            g.attrs[i]))
        return _row(g.sources[i], g.targets[i], g.nums[i], g.dens[i], g.attrs[i])

    def __iter__(self) -> Iterator[Edge]:
        g = self._graph
        return map(_row, g.sources, g.targets, g.nums, g.dens, g.attrs)


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

_PLAIN_TYPES = frozenset({str, int})


def _csv_quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def encode_rows(rows: Iterable[str]) -> bytes:
    """Rows as UTF-8 text, each ended by a newline; no rows give no bytes."""
    return "\n".join([*rows, ""]).encode("utf-8")


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
    under "attrs".

    Node names are ranked in string order, and rows sort by the int
    (source rank, target rank). Only a run of rows that tie on it is
    sorted again by the rest of the key, so the hash is computed for tied
    rows alone. Each node's cell and each distinct attribute map's JSON
    and cell are computed once per call.
    """
    if not isinstance(graph, EdgeList):
        graph = EdgeList(graph)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    csv = fmt == "csv"
    nums, dens, attrs = graph.nums, graph.dens, graph.attrs
    quote = _csv_quote if csv else canonical_json
    memo: dict[tuple, tuple[str, str]] = {}  # plain attrs -> json, cell

    def encoded(row_attrs: tuple) -> tuple[str, str]:
        # Equal maps of str keys and str or int values serialise alike, so
        # they key the memo; 1.0 and True equal 1 but serialise otherwise.
        plain = all(type(k) is str and type(v) in _PLAIN_TYPES for k, v in row_attrs)
        pair = memo.get(row_attrs) if plain else None
        if pair is None:
            attr_json = canonical_json(dict(row_attrs))
            pair = (attr_json, quote(attr_json) if csv else attr_json)
            if plain:
                memo[row_attrs] = pair
        return pair

    attr_cells = []  # by build position
    last = attr_cell = None
    for a in attrs:
        if a is not last:
            last, attr_cell = a, encoded(a)[1]
        attr_cells.append(attr_cell)

    def tie_key(i: int) -> tuple[str, str, str, str]:
        attr_json = encoded(attrs[i])[0]
        n = nums[i]
        num, den = ("", "") if n is None else (str(n), str(dens[i]))
        return (hashlib.sha256(attr_json.encode("utf-8")).hexdigest(), num, den,
                attr_json)

    names = sorted({*graph.sources, *graph.targets})
    rank = {name: r for r, name in enumerate(names)}
    m = len(names)
    pairs = [rank[s] * m + rank[t] for s, t in zip(graph.sources, graph.targets)]
    cells = list(map(quote, names))
    del names, rank
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    ranked = list(map(pairs.__getitem__, order))
    done = 0  # where the last re-sorted run of tied rows ends
    for k in compress(count(1), map(eq, ranked, islice(ranked, 1, None))):
        if k > done:  # order[k - 1] starts a run of rows tied on the ranks
            done = bisect_right(ranked, ranked[k], k)
            order[k - 1:done] = sorted(order[k - 1:done], key=tie_key)
    del ranked
    if csv:
        lines = ["source,target,weight_num,weight_den,attr_json\n",
                 *(f"{cells[p // m]},{cells[p % m]},{'' if n is None else n},"
                   f"{'' if n is None else dens[i]},{attr_cells[i]}\n"
                   for i in order for p, n in [(pairs[i], nums[i])])]
    else:
        lines = ["[",
                 *(f'{"," if j else ""}{{"attrs":{attr_cells[i]},'
                   f'"source":{cells[p // m]},"target":{cells[p % m]},'
                   f'"weight_den":"{"" if n is None else dens[i]}",'
                   f'"weight_num":"{"" if n is None else n}"}}'
                   for j, i in enumerate(order) for p, n in [(pairs[i], nums[i])]),
                 "]\n"]
    del order, attr_cells, pairs, cells  # freed before the text is copied out
    text = "".join(lines)
    del lines
    return text.encode("utf-8")


def export_hypergraph(graph: Hypergraph, fmt: str = "csv") -> bytes:
    """Hyperedges as (label, position, member) rows or JSON objects."""
    edges = sorted(graph.edges, key=lambda h: (h.label, h.members))
    if fmt == "csv":
        rows = (csv_row((h.label, str(pos), member))
                for h in edges for pos, member in enumerate(h.members))
        return encode_rows(chain(["label,position,member"], rows))
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
    return encode_rows(",".join(str(int(v)) for v in row) for row in matrix)
