"""Bundle construction: the atomic group of input, output and
signature-fragment transactions realizing one transfer. Values sum to
zero (no fees); a level-s input is followed by s-1 zero-value fragment
transactions holding the rest of its signature."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..core import BadAmountError, LedgerError
from .keys import KEY_FRAGMENT_TRYTES, check_security_level
from .sponge import MixerSponge, squeeze_blocks
from .trinary import ascii_to_trits, encode_trytes

__all__ = ["TangleTransaction", "Bundle", "UnbalancedBundleError", "build_bundle"]


class UnbalancedBundleError(LedgerError):
    code = "unbalanced-bundle"


@dataclass
class TangleTransaction:
    """One DAG node. Negative value: input; positive: output; zero:
    message or signature fragment. Filled-in trunk/branch/hash/nonce are
    assigned at attach time and never change afterwards."""

    address: str
    value: int
    bundle: str = ""
    index: tuple[int, int] = (0, 0)  # position / last index
    tag: str = ""
    timestamp: int = 0
    signature_fragment: str = ""
    hash: str = ""
    trunk: str = ""
    branch: str = ""
    nonce: int = 0

    def __post_init__(self) -> None:
        if len(self.signature_fragment) > KEY_FRAGMENT_TRYTES:
            raise LedgerError(
                f"signatureMessageFragment holds at most {KEY_FRAGMENT_TRYTES} trytes")

    @property
    def is_input(self) -> bool:
        return self.value < 0

    def essence(self) -> str:
        return (f"{self.address}|{self.value}|{self.tag}|"
                f"{self.index[0]}/{self.index[1]}|{self.timestamp}")


@dataclass
class Bundle:
    bundle_hash: str
    transactions: list[TangleTransaction] = field(default_factory=list)

    def value_sum(self) -> int:
        return sum(tx.value for tx in self.transactions)


def compute_bundle_hash(txs: list[TangleTransaction]) -> str:
    """Digest over every member's essence; changing any transaction
    invalidates the hash."""
    sponge = MixerSponge()
    for tx in txs:
        sponge.absorb(ascii_to_trits(tx.essence()))
    return encode_trytes(sponge.squeeze())


# Every tangle producer in the package reuses a small set of addresses,
# and change goes back to the source address, so the same fragments are
# asked for again and again. The gain depends on that reuse: traffic that
# spends from fresh addresses misses every time. 256 entries of at most
# three fragments bound the memo at about 1.6 MiB.
@functools.lru_cache(maxsize=256)
def _fragment_blobs(address: str, level: int) -> tuple[str, ...]:
    """Opaque signature stand-ins of a level-`level` input, one fragment
    (2187 trytes) per position, squeezed as one batch."""
    rows = np.stack([ascii_to_trits(f"sig|{address}|{p}") for p in range(level)])
    return tuple(encode_trytes(trits) for trits in squeeze_blocks(rows, 27))


def build_bundle(inputs: list[tuple[str, int, int]],
                 outputs: list[tuple[str, int]],
                 tag: str = "", timestamp: int = 0) -> Bundle:
    """Assemble a bundle from (address, security level, amount) inputs and
    (address, amount) outputs. Amounts are non-negative and levels 1-3
    (else BadAmountError, BadRecordError); input amounts must equal output
    amounts (no fee). Each level-s input contributes one negative-value
    transaction plus s-1 zero-value fragment transactions immediately
    after it, outputs follow as positive-value transactions."""
    for (address, level, amount) in inputs:
        check_security_level(address, level)
    for (address, amount) in [(a, v) for (a, _l, v) in inputs] + list(outputs):
        if amount < 0:
            raise BadAmountError(f"{address}: amount must be >= 0, got {amount}")
    total_in = sum(amount for (_a, _l, amount) in inputs)
    total_out = sum(amount for (_a, amount) in outputs)
    if total_in != total_out:
        raise UnbalancedBundleError(
            f"inputs {total_in} != outputs {total_out}; bundles carry no fee")

    txs: list[TangleTransaction] = []
    for (address, level, amount) in inputs:
        for position, blob in enumerate(_fragment_blobs(address, level)):
            txs.append(TangleTransaction(
                address=address, value=0 if position else -amount, tag=tag,
                timestamp=timestamp, signature_fragment=blob))
    for (address, amount) in outputs:
        txs.append(TangleTransaction(address=address, value=amount, tag=tag,
                                     timestamp=timestamp))

    last = len(txs) - 1
    for pos, tx in enumerate(txs):
        tx.index = (pos, last)
    bundle_hash = compute_bundle_hash(txs)
    for tx in txs:
        tx.bundle = bundle_hash
    return Bundle(bundle_hash, txs)


def message_transaction(address: str, tag: str = "", timestamp: int = 0,
                        data: str = "") -> Bundle:
    """A standalone zero-value (message) transaction as its own bundle."""
    tx = TangleTransaction(address=address, value=0, tag=tag,
                           timestamp=timestamp,
                           signature_fragment=data[:KEY_FRAGMENT_TRYTES])
    bundle_hash = compute_bundle_hash([tx])
    tx.bundle = bundle_hash
    return Bundle(bundle_hash, [tx])
