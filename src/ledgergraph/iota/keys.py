"""Seed -> subseed -> private key -> address derivation.

The pipeline shape follows the one-time-address scheme: the subseed is
the sponge digest of the seed with the key index added into its trailing
trits; the private key squeezes 27 blocks of 81 trytes per security
level; the address hashes each 81-tryte key segment 26 times and digests
the segment hashes together. Signing itself is out of scope: bundles
carry no signature content; only sizes and determinism matter here.
"""

from __future__ import annotations

import numpy as np

from ..core import BadRecordError, LedgerError
from .sponge import BLOCK_TRITS, MixerSponge, sponge_hash, squeeze_blocks
from .trinary import decode_trytes, encode_trytes, int_to_trits, trits_to_int

__all__ = [
    "SEED_TRYTES",
    "MAX_KEY_INDEX",
    "KEY_FRAGMENT_TRYTES",
    "SEGMENT_TRYTES",
    "SEGMENT_ROUNDS",
    "CHECKSUM_TRYTES",
    "check_security_level",
    "derive_subseed",
    "derive_private_key",
    "derive_address",
]

SEED_TRYTES = 81
MAX_KEY_INDEX = 9_007_199_254_740_991
KEY_FRAGMENT_TRYTES = 2187  # one signatureMessageFragment
SEGMENT_TRYTES = 81
SEGMENT_ROUNDS = 26
CHECKSUM_TRYTES = 9
_BLOCKS_PER_LEVEL = 27


class IndexOutOfRangeError(LedgerError):
    code = "index-out-of-range"


class BadSeedError(LedgerError):
    code = "bad-seed"


class BadKeyLengthError(LedgerError):
    code = "bad-key-length"


def _seed_trits(seed: str) -> list[int]:
    if len(seed) != SEED_TRYTES:
        raise BadSeedError(f"seed must be exactly {SEED_TRYTES} trytes")
    return decode_trytes(seed)


def _add_index_into_tail(trits: list[int], index: int) -> list[int]:
    # balanced-ternary addition, trit 242 least significant; a carry off
    # trit 0 is dropped, so the sum wraps modulo 3^243 into the balanced range
    modulus = 3 ** len(trits)
    half = modulus // 2
    total = (trits_to_int(reversed(trits)) + index + half) % modulus - half
    return int_to_trits(total, len(trits))[::-1]


def derive_subseed(seed: str, index: int) -> str:
    """81-tryte subseed for one key index of a seed."""
    if not 0 <= index <= MAX_KEY_INDEX:
        raise IndexOutOfRangeError(
            f"index must lie in [0, {MAX_KEY_INDEX}], got {index}")
    trits = _add_index_into_tail(_seed_trits(seed), index)
    return encode_trytes(sponge_hash(trits))


def check_security_level(owner: str, level: int) -> None:
    """BadRecordError naming the key's owner unless the level is 1, 2 or 3."""
    if level not in (1, 2, 3):
        raise BadRecordError(f"{owner}: security level {level} is not 1, 2 or 3")


def derive_private_key(subseed: str, level: int) -> str:
    """Private key of level * 2187 trytes: the sponge absorbs the subseed
    and squeezes 27 blocks of 81 trytes per security level."""
    check_security_level("private key", level)
    return encode_trytes(squeeze_blocks(decode_trytes(subseed),
                                        _BLOCKS_PER_LEVEL * level))


def derive_address(private_key: str, with_checksum: bool = False) -> str:
    """81-tryte address (90 with checksum): hash every 81-tryte key
    segment 26 times, then digest the segment hashes together."""
    if len(private_key) % KEY_FRAGMENT_TRYTES:
        raise BadKeyLengthError(
            f"private key length {len(private_key)} is not a multiple of "
            f"{KEY_FRAGMENT_TRYTES} trytes")
    # the segments' hash chains are independent: one batch, row per segment
    digests = np.array(decode_trytes(private_key), dtype=np.int8)
    digests = digests.reshape(-1, BLOCK_TRITS)
    for _ in range(SEGMENT_ROUNDS):
        digests = sponge_hash(digests)
    outer = MixerSponge()
    outer.absorb(digests.ravel())
    address_trits = outer.squeeze()
    address = encode_trytes(address_trits)
    if with_checksum:
        digest = sponge_hash(address_trits)
        address += encode_trytes(digest)[-CHECKSUM_TRYTES:]
    return address
