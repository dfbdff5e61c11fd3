"""Balanced-ternary primitives. A tryte is three trits over {-1, 0, 1},
little-endian (value = t0 + 3*t1 + 9*t2, range -13..13), printed as one
character of the 27-symbol alphabet at position value mod 27. The codec
is a bijection, verified exhaustively in the tests."""

from __future__ import annotations

import numpy as np

from ..core import LedgerError

__all__ = [
    "TRYTE_ALPHABET",
    "InvalidTryteError",
    "encode_trytes",
    "decode_trytes",
    "int_to_trits",
    "trits_to_int",
    "ascii_to_trits",
]

TRYTE_ALPHABET = "9ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CHAR_INDEX = {c: i for i, c in enumerate(TRYTE_ALPHABET)}

# tryte value for alphabet index i: 0..13 map to themselves, 14..26 wrap
# to -13..-1 (index = value mod 27)
_INDEX_VALUE = [i if i <= 13 else i - 27 for i in range(27)]


class InvalidTryteError(LedgerError):
    code = "invalid-char"


_TRYTE_PLACES = np.array([1, 3, 9])
_ALPHABET_BYTES = np.frombuffer(TRYTE_ALPHABET.encode("ascii"), dtype=np.uint8)


def encode_trytes(trits) -> str:
    """Trits to characters; length must be a multiple of 3."""
    trits = np.asarray(trits, dtype=np.int64)
    if trits.size % 3:
        raise InvalidTryteError(
            f"trit length {trits.size} is not a multiple of 3")
    outside = (trits < -1) | (trits > 1)
    if outside.any():
        raise InvalidTryteError(
            f"trit {trits[outside][0]} outside {{-1,0,1}}")
    values = trits.reshape(-1, 3) @ _TRYTE_PLACES
    return _ALPHABET_BYTES[values % 27].tobytes().decode("ascii")


def decode_trytes(trytes: str) -> list[int]:
    """Characters back to trits; inverse of encode_trytes."""
    trits: list[int] = []
    for c in trytes:
        idx = _CHAR_INDEX.get(c)
        if idx is None:
            raise InvalidTryteError(f"character {c!r} is not a tryte")
        trits.extend(_VALUE_TRITS[_INDEX_VALUE[idx]])
    return trits


def int_to_trits(value: int, length: int | None = None) -> list[int]:
    """Integer to little-endian balanced ternary. The representation is
    unique, so a negative value's trits are its magnitude's, negated."""
    digits: list[int] = []
    n = value
    while n:
        r = n % 3
        if r == 2:
            digits.append(-1)
            n = n // 3 + 1
        else:
            digits.append(r)
            n //= 3
    if length is not None:
        if len(digits) > length:
            raise ValueError(f"{value} does not fit in {length} trits")
        digits.extend([0] * (length - len(digits)))
    return digits


def trits_to_int(trits) -> int:
    total, power = 0, 1
    for t in trits:
        total += int(t) * power
        power *= 3
    return total


_VALUE_TRITS = {v: int_to_trits(v, 3) for v in range(-13, 14)}
# the 6 little-endian trits of every byte value
_BYTE_TRITS = np.array([int_to_trits(b, 6) for b in range(256)], dtype=np.int8)


def ascii_to_trits(text: str) -> np.ndarray:
    """Opaque identifier strings to trits (6 trits per byte), zero-padded
    to a multiple of 243, the sponge's block. A command-line byte that is
    not UTF-8 (decoded to a surrogate) is hashed as that byte."""
    data = np.frombuffer(text.encode("utf-8", "surrogateescape"), dtype=np.uint8)
    used = 6 * data.size
    size = max(-(-used // 243), 1) * 243
    trits = np.zeros(size, dtype=np.int8)
    trits[:used] = _BYTE_TRITS[data].ravel()
    return trits
