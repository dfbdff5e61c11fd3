"""UTXO data model and validation: coin lineage, block application,
Monero-style ring inputs and Zcash transaction-type classification.

A Ledger is single-writer; apply_block() validates the whole block against
a staged view and commits atomically.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .core import (BadRecordError, LedgerError, _check_bound, at_line,
                   get_field, jsonl_records, naming)

__all__ = [
    "OutputRef",
    "Output",
    "RingInput",
    "UtxoTransaction",
    "Block",
    "Ledger",
    "MissingOutputError",
    "DoubleSpendError",
    "OverspendError",
    "ExcessiveRewardError",
    "InsufficientDecoysError",
    "DuplicateTxidError",
    "HeightMismatchError",
    "UnshieldedCoinbaseError",
    "classify_zcash_tx",
    "build_ring_input",
    "trace_lineage",
    "load_jsonl",
    "dump_jsonl",
    "RING_SIZE",
    "bitcoin_halving_schedule",
]

RING_SIZE = 11  # 10 foreign decoy UTXOs plus the real spend

COIN = 100_000_000  # subunits per coin
INITIAL_SUBSIDY = 50 * COIN  # the block reward at launch
HALVING_INTERVAL = 210_000  # blocks between reward halvings


def bitcoin_halving_schedule(height: int) -> int:
    """Preset subsidy schedule: the block reward halves every 210,000
    blocks until it rounds to nothing."""
    halvings = height // HALVING_INTERVAL
    if halvings >= 64:
        return 0
    return INITIAL_SUBSIDY >> halvings


class MissingOutputError(LedgerError):
    code = "missing-output"


class DoubleSpendError(LedgerError):
    code = "double-spend"


class OverspendError(LedgerError):
    code = "overspend"


class ExcessiveRewardError(LedgerError):
    code = "excessive-reward"


class InsufficientDecoysError(LedgerError):
    code = "insufficient-decoys"


class DuplicateTxidError(LedgerError):
    code = "duplicate-txid"


class HeightMismatchError(LedgerError):
    """A block whose height is not one past the ledger's tip."""

    code = "height-mismatch"


class UnshieldedCoinbaseError(LedgerError):
    """A Zcash coinbase paying a transparent address on a ledger that
    requires shielded rewards."""

    code = "unshielded-coinbase"


OutputRef = tuple[str, int]


class _BlockView:
    """Copy-free staging overlay for intra-block validation."""

    def __init__(self, base: dict):
        self.base = base
        self.added: dict[OutputRef, "Output"] = {}
        self.consumed: dict[OutputRef, None] = {}  # ordered set, spend order

    def get(self, ref: OutputRef) -> "Output | None":
        if ref in self.consumed:
            return None
        out = self.added.get(ref)
        return out if out is not None else self.base.get(ref)

    def spend(self, ref: OutputRef) -> None:
        self.consumed[ref] = None

    def add(self, out: "Output") -> None:
        self.added[out.ref] = out


@dataclass(frozen=True)
class Output:
    """An indivisible coin parcel, referenced by (txid, index). The amount
    is an int in satoshis, within the 128-bit bound."""

    txid: str
    index: int
    amount: int
    address: str
    amount_visible: bool = True  # False for RingCT-style hidden outputs

    @property
    def ref(self) -> OutputRef:
        return (self.txid, self.index)

    def __post_init__(self) -> None:
        if not isinstance(self.amount, int):
            raise TypeError("output amount must be an int (no floating-point finance)")
        _check_bound(self.amount)
        if self.index < 0:
            raise BadRecordError("output index must be non-negative")
        if self.amount < 0:
            raise BadRecordError("output amount must be non-negative")


@dataclass(frozen=True)
class RingInput:
    """Ring of 11 output references hiding one real spend.

    real_index is generator-side knowledge only; validators and exporters
    never read it.
    """

    members: tuple[OutputRef, ...]
    real_index: int

    def __post_init__(self) -> None:
        if len(self.members) != RING_SIZE:
            raise ValueError(f"ring must have exactly {RING_SIZE} members")
        if len(set(self.members)) != RING_SIZE:
            raise ValueError("ring members must be distinct")
        if not 0 <= self.real_index < RING_SIZE:
            raise ValueError("real_index outside ring")


@dataclass(frozen=True)
class UtxoTransaction:
    id: str
    inputs: tuple[OutputRef, ...]
    outputs: tuple[Output, ...]
    coinbase: bool = False
    block_height: int | None = None
    input_kinds: tuple[str, ...] | None = None  # t / z per input side
    output_kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.coinbase:
            if self.inputs:
                raise BadRecordError("coinbase transaction must have no inputs")
            if not self.outputs:
                raise BadRecordError("coinbase transaction needs at least one output")
        else:
            if not self.inputs or not self.outputs:
                raise BadRecordError("spending transaction needs >=1 input and >=1 output")
        if len(set(self.inputs)) != len(self.inputs):
            raise BadRecordError("input references must be distinct")

    def output_total(self) -> int:
        return sum(o.amount for o in self.outputs)


@dataclass(frozen=True)
class Block:
    height: int
    timestamp: int
    transactions: tuple[UtxoTransaction, ...]
    subsidy: int

    def __post_init__(self) -> None:
        _check_bound(self.subsidy)
        if not self.transactions or not self.transactions[0].coinbase:
            raise BadRecordError("block must start with its coinbase transaction")
        if any(tx.coinbase for tx in self.transactions[1:]):
            raise BadRecordError("only one coinbase per block, at position 0")


def classify_zcash_tx(input_kinds: Iterable[str], output_kinds: Iterable[str]) -> str:
    """Five-way Zcash classification from per-side t/z address kinds."""
    ins, outs = list(input_kinds), list(output_kinds)
    if not ins or not outs:
        raise LedgerError("empty-side: both kind lists must be non-empty")
    for k in ins + outs:
        if k not in ("t", "z"):
            raise ValueError(f"kind must be 't' or 'z', got {k!r}")
    all_t_in, all_z_in = all(k == "t" for k in ins), all(k == "z" for k in ins)
    all_t_out, all_z_out = all(k == "t" for k in outs), all(k == "z" for k in outs)
    if all_t_in and all_t_out:
        return "public"
    if all_t_in and all_z_out:
        return "shielding"
    if all_z_in and all_t_out:
        return "deshielding"
    if all_z_in and all_z_out:
        return "private"
    return "mixed"


def build_ring_input(real: OutputRef, decoy_pool: Iterable[OutputRef],
                     rng_seed: int) -> RingInput:
    """Assemble an 11-member ring: the real spend plus 10 chosen decoys.

    Deterministic under rng_seed; the real spend lands at a uniformly
    random position.
    """
    pool = sorted(set(decoy_pool) - {real})
    if len(pool) < RING_SIZE - 1:
        raise InsufficientDecoysError(
            f"need {RING_SIZE - 1} distinct decoys, have {len(pool)}"
        )
    rng = random.Random(rng_seed)
    decoys = rng.sample(pool, RING_SIZE - 1)
    position = rng.randrange(RING_SIZE)
    members = decoys[:position] + [real] + decoys[position:]
    return RingInput(tuple(members), position)


class Ledger:
    """Canonical-chain UTXO state. Fork choice is out of scope; blocks are
    ingested already ordered."""

    def __init__(self, zcash_coinbase_shielded: bool = False):
        self.blocks: list[Block] = []
        self.transactions: dict[str, UtxoTransaction] = {}
        self.utxo: dict[OutputRef, Output] = {}
        self.destroyed: int = 0  # subunits lost to under-claiming coinbases
        self.zcash_coinbase_shielded = zcash_coinbase_shielded

    # -- queries ----------------------------------------------------------

    @property
    def tip_height(self) -> int:
        return self.blocks[-1].height if self.blocks else -1

    def output(self, ref: OutputRef) -> Output:
        return self.creating_tx(ref).outputs[ref[1]]

    def total_supply(self) -> int:
        return sum(tx.output_total() for tx in self.transactions.values()
                   if tx.coinbase)

    def confirmations(self, txid: str) -> int:
        """Blocks on top of the transaction's block, inclusive. The
        6-confirmation community practice is reporting-only; validation
        never enforces it."""
        tx = self.transactions.get(txid)
        if tx is None or tx.block_height is None:
            raise MissingOutputError(f"unknown transaction {txid}")
        return self.tip_height - tx.block_height + 1

    def considered_final(self, txid: str, depth: int = 6) -> bool:
        return self.confirmations(txid) >= depth

    def summary(self) -> dict[str, int]:
        """Chain size and supply figures, as `utxo validate` prints them."""
        return {
            "blocks": len(self.blocks),
            "transactions": len(self.transactions),
            "unspent_outputs": len(self.utxo),
            "total_supply": self.total_supply(),
            "destroyed": self.destroyed,
        }

    # -- validation -------------------------------------------------------

    def validate_transaction(self, tx: UtxoTransaction,
                             view: "_BlockView | None" = None) -> int:
        """Check a spending transaction against the unspent set; return fee.

        view defaults to the ledger's UTXO set; apply_block passes a staged
        overlay so intra-block spends of earlier same-block outputs work.
        """
        if tx.coinbase:
            raise ValueError("validate_transaction is for non-coinbase transactions")
        utxo = view if view is not None else _BlockView(self.utxo)
        total_in = 0
        for ref in tx.inputs:
            out = utxo.get(ref)
            if out is None:
                if ref in utxo.consumed or self._created(ref):
                    raise DoubleSpendError(f"{ref} is already spent")
                raise MissingOutputError(f"input {ref} does not exist")
            total_in += out.amount
        fee = total_in - tx.output_total()
        if fee < 0:
            raise OverspendError(
                f"tx {tx.id} outputs {tx.output_total()} exceed inputs {total_in}"
            )
        return _check_bound(fee)

    def validate_coinbase(self, tx: UtxoTransaction, block_fee_sum: int,
                          subsidy: int) -> int:
        """Coinbase may claim up to subsidy + fees; less is allowed and the
        difference is reported as destroyed supply."""
        if not tx.coinbase:
            raise ValueError("not a coinbase transaction")
        claimed = tx.output_total()
        cap = subsidy + block_fee_sum
        if claimed > cap:
            raise ExcessiveRewardError(
                f"coinbase claims {claimed}, cap is {cap}"
            )
        if self.zcash_coinbase_shielded and tx.output_kinds is not None:
            if any(k != "z" for k in tx.output_kinds):
                raise UnshieldedCoinbaseError(
                    "coinbase rewards must go to shielded addresses")
        return _check_bound(claimed)

    # -- mutation ---------------------------------------------------------

    def apply_block(self, block: Block) -> "Ledger":
        """Validate and append one block atomically.

        Transactions are checked in block order; any error aborts the whole
        block with the ledger unchanged.
        """
        if block.height != self.tip_height + 1:
            raise HeightMismatchError(
                f"block height {block.height} does not extend tip {self.tip_height}"
            )
        block_ids: set[str] = set()
        for tx in block.transactions:
            if tx.id in self.transactions or tx.id in block_ids:
                raise DuplicateTxidError(f"duplicate transaction id {tx.id}")
            block_ids.add(tx.id)

        staged = _BlockView(self.utxo)
        coinbase = block.transactions[0]
        for out in coinbase.outputs:  # spendable later in this very block
            staged.add(out)
        fees = 0
        for tx in block.transactions[1:]:
            fee = self.validate_transaction(tx, staged)
            fees += fee
            for ref in tx.inputs:
                staged.spend(ref)
            for out in tx.outputs:
                staged.add(out)
        spent_in_block = staged.consumed
        claimed = self.validate_coinbase(coinbase, _check_bound(fees), block.subsidy)

        # commit
        self.destroyed += block.subsidy + fees - claimed
        for tx in block.transactions:
            if tx.block_height != block.height:
                tx = replace(tx, block_height=block.height)
            self.transactions[tx.id] = tx
            for out in tx.outputs:
                self.utxo[out.ref] = out
        for ref in spent_in_block:
            del self.utxo[ref]
        self.blocks.append(block)
        return self

    # -- lineage ----------------------------------------------------------

    def _created(self, ref: OutputRef) -> bool:
        tx = self.transactions.get(ref[0])
        return tx is not None and 0 <= ref[1] < len(tx.outputs)

    def creating_tx(self, ref: OutputRef) -> UtxoTransaction:
        if not self._created(ref):
            raise MissingOutputError(f"unknown output {ref}")
        return self.transactions[ref[0]]


def trace_lineage(ref: OutputRef, ledger: Ledger) -> list[tuple[OutputRef, ...]]:
    """All distinct backward paths from an output to coinbase outputs.

    Each path is a tuple of output references ordered coinbase-first and
    ending at ``ref``. A coinbase output yields the single path (ref,).
    """
    ledger.output(ref)  # raises missing-output

    paths: list[tuple[OutputRef, ...]] = []
    # (output, the path from it forward to ref); an explicit stack, so a
    # long spend chain cannot hit the interpreter's recursion limit
    stack: list[tuple[OutputRef, tuple[OutputRef, ...]]] = [(ref, ())]
    while stack:
        current, tail = stack.pop()
        path = (current,) + tail
        tx = ledger.creating_tx(current)
        if tx.coinbase:
            paths.append(path)
        else:
            stack.extend((parent, path) for parent in tx.inputs)
    paths.sort()
    return paths


# --------------------------------------------------------------------------
# JSONL ingestion (one transaction per line)

def _kinds(rec: dict, side: str) -> tuple[str, ...] | None:
    kinds = get_field(get_field(rec, "kinds", dict, {}), side, list, None)
    if kinds is None:
        return None
    if not all(k in ("t", "z") for k in kinds):
        raise BadRecordError(f"kinds {side!r} must hold 't' or 'z', got {kinds!r}")
    return tuple(kinds)


def _tx_from_record(rec: dict) -> UtxoTransaction:
    txid = get_field(rec, "id")
    outputs = tuple(
        Output(txid, i, get_field(o, "amount", int), get_field(o, "address"),
               amount_visible=get_field(o, "visible", bool, True))
        for i, o in enumerate(get_field(rec, "outputs", list))
    )
    return UtxoTransaction(
        id=txid,
        inputs=tuple((get_field(i, "txid"), get_field(i, "index", int))
                     for i in get_field(rec, "inputs", list, [])),
        outputs=outputs,
        coinbase=get_field(rec, "coinbase", bool, False),
        block_height=get_field(rec, "block", int),
        input_kinds=_kinds(rec, "in"),
        output_kinds=_kinds(rec, "out"),
    )


def load_jsonl(lines: Iterable[str], subsidy: int = INITIAL_SUBSIDY) -> Ledger:
    """Build a ledger from ingestion JSONL, validating every block; block
    h is stamped 1,231,006,505 + 600 h seconds.
    Amounts, heights and indexes must be JSON integers; a malformed line
    raises BadJsonError, BadRecordError or BadAmountError naming it, and a
    block whose coinbase is missing or doubled raises one naming the block."""
    by_block: dict[int, list[UtxoTransaction]] = {}
    for line_no, rec in jsonl_records(lines):
        with at_line(line_no):
            tx = _tx_from_record(rec)
        by_block.setdefault(tx.block_height, []).append(tx)
    ledger = Ledger()
    for height in sorted(by_block):
        txs = by_block[height]
        txs.sort(key=lambda t: not t.coinbase)  # coinbase first, stable otherwise
        with naming(f"block {height}"):
            block = Block(height, 1_231_006_505 + height * 600, tuple(txs),
                          subsidy)
        ledger.apply_block(block)
    return ledger


def dump_jsonl(ledger: Ledger) -> Iterator[str]:
    """Inverse of load_jsonl, deterministic line order (block, position)."""
    for block in ledger.blocks:
        for tx in block.transactions:
            rec = {
                "id": tx.id,
                "block": block.height,
                "coinbase": tx.coinbase,
                "inputs": [{"txid": t, "index": i} for t, i in tx.inputs],
                "outputs": [
                    {"amount": o.amount, "address": o.address,
                     **({} if o.amount_visible else {"visible": False})}
                    for o in tx.outputs
                ],
            }
            if tx.input_kinds is not None or tx.output_kinds is not None:
                rec["kinds"] = {"in": list(tx.input_kinds or ()),
                                "out": list(tx.output_kinds or ())}
            yield json.dumps(rec, sort_keys=True, separators=(",", ":"))
