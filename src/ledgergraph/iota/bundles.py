"""Bundle construction: the atomic group of input, output and
signature-fragment transactions realizing one transfer. Values sum to
zero (no fees); a level-s input is followed by s-1 zero-value fragment
transactions, which stand in the bundle for the rest of its signature.
Signatures are out of scope, so neither kind carries signature content;
no hash, export or check would read it."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import BadAmountError, LedgerError
from .keys import KEY_FRAGMENT_TRYTES, check_security_level
from .sponge import MixerSponge
from .trinary import ascii_to_trits, encode_trytes

__all__ = ["TangleTransaction", "Bundle", "UnbalancedBundleError",
           "FragmentTooLongError", "build_bundle"]


class UnbalancedBundleError(LedgerError):
    code = "unbalanced-bundle"


class FragmentTooLongError(LedgerError):
    code = "fragment-too-long"


@dataclass
class TangleTransaction:
    """One DAG node. Negative value: input; positive: output; zero:
    message or signature fragment. `data` is a message's data as given,
    empty for every other transaction. Filled-in trunk/branch/hash/nonce
    are assigned at attach time and never change afterwards."""

    address: str
    value: int
    bundle: str = ""
    index: tuple[int, int] = (0, 0)  # position / last index
    tag: str = ""
    timestamp: int = 0
    data: str = ""
    hash: str = ""
    trunk: str = ""
    branch: str = ""
    nonce: int = 0

    def __post_init__(self) -> None:
        if len(self.data) > KEY_FRAGMENT_TRYTES:
            raise FragmentTooLongError(
                f"message data of {len(self.data)} characters; "
                f"a signatureMessageFragment holds at most {KEY_FRAGMENT_TRYTES}")

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
        for position in range(level):
            txs.append(TangleTransaction(
                address=address, value=0 if position else -amount, tag=tag,
                timestamp=timestamp))
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
    """A standalone zero-value (message) transaction as its own bundle.
    Data longer than one fragment (2187 characters) is rejected, not cut."""
    tx = TangleTransaction(address=address, value=0, tag=tag,
                           timestamp=timestamp, data=data)
    bundle_hash = compute_bundle_hash([tx])
    tx.bundle = bundle_hash
    return Bundle(bundle_hash, [tx])
