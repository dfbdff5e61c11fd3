"""Sponge over 243-trit blocks.

MixerSponge is a fast, deterministic, non-cryptographic
permute-and-substitute mixer for tests and simulation; every hash in
the package goes through it. A ternary Keccak (KERL) is deliberately
NOT implemented.

Each of the 8 rounds of the mixer permutation gathers the 729-trit state
s by the stride _PERM (n -> 364 n mod 729), takes two neighbours of the
gathered state, a = roll(s, 1) and b = roll(s, offset of the round), and
sets every trit to

    (s + 2a + b + a*b + total + key) mod 3 - 1

where total is the trit sum of the state and key the round's key trit
for that position. In u = trit + 1 this is u' = s + a*(b + 1) + k over
GF(3), with k = (key + total) mod 3.

The code computes exactly this, bit-sliced (Boothby and Bradshaw,
"Bitslicing and the method of four Russians over larger finite fields",
2009). One np.packbits turns each state into two 729-bit Python ints,
the planes of u == 1 and of u == 2, and a round is some thirty AND, OR,
XOR and shift operations on them. Round r runs in coordinates scaled by
364^(r + 1): standard position n sits at bit 364^(r + 1) n mod 729, so
the stride gather is the identity and the two neighbours are rolls of
the planes by d = 364^(r + 1) and by d * offset, both mod 729. total mod
3 is the difference of the planes' bit counts, and each round's key
planes for the three values of total mod 3 are built at import, in that
round's coordinates. One np.unpackbits and one gather n -> 364^8 n mod
729 return the result to standard coordinates. Digests equal the roll
formula's trit for trit; the tests keep that formula as the oracle.

A sponge holds one state or a batch of independent states, shape
(..., 729); every step acts on each state alike, so k chains that do not
depend on each other (key segments) advance through one
permutation call instead of k: one pack and one unpack for the batch,
and the rounds row by row. The permutation that follows a
squeezed block runs only when something reads on: before the next
squeeze, or before the next absorb. A one-shot hash therefore runs none
after its only read, and squeezing n blocks runs n - 1 after absorbing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MixerSponge", "sponge_hash", "squeeze_blocks", "BLOCK_TRITS"]

BLOCK_TRITS = 243
STATE_TRITS = 729
_ROUNDS = 8

# multiplicative stride, coprime with 3^6, so indexing is a permutation
_PERM = np.arange(STATE_TRITS, dtype=np.int64) * 364 % STATE_TRITS

# varied roll offsets so no single algebraic relation with the stride
# survives across rounds
_OFFSETS = (364, 27, 113, 541, 9, 310, 73, 200)

# dense per-round keys (fixed integer recurrence, platform independent);
# they keep the state dense so the multiplicative term stays active
_IDX = np.arange(STATE_TRITS, dtype=np.int64)
_ROUND_KEYS = np.stack([
    ((_IDX * 2654435761 + r * 40503 + 12345) >> 7) % 3 - 1
    for r in range(_ROUNDS)
])

# A state is two planes of 729-bit ints: bit q of x1 is u == 1 and of x2
# is u == 2, where u = trit + 1; x1 & x2 == 0.
_MASK = (1 << STATE_TRITS) - 1
_PLANE_BYTES = -(-STATE_TRITS // 8)
_PLANE_TRITS = np.array([[0], [1]], dtype=np.int8)  # the trits where u is 1, 2


def _round_planes(rnd: int, offset: int) -> tuple[int, int, tuple]:
    """The right shifts that roll round rnd's doubled planes by d and by
    d * offset, and its key planes (key + c) mod 3 in its coordinates for
    c = total mod 3 = 0, 1, 2."""
    d = pow(364, rnd + 1, STATE_TRITS)
    scaled = np.empty(STATE_TRITS, dtype=np.int64)
    keyed = []
    for c in range(3):
        scaled[_IDX * d % STATE_TRITS] = (_ROUND_KEYS[rnd] + c) % 3
        bits = np.packbits(scaled == _PLANE_TRITS + 1, axis=-1, bitorder="little")
        keyed.append(tuple(int.from_bytes(row.tobytes(), "little") for row in bits))
    return (STATE_TRITS - d, STATE_TRITS - d * offset % STATE_TRITS,
            tuple(keyed))


_ROUND_PLANES = tuple(_round_planes(rnd, offset)
                      for rnd, offset in enumerate(_OFFSETS))
# bit 364^8 n of the final planes is standard position n
_UNSCALE = _IDX * pow(364, _ROUNDS, STATE_TRITS) % STATE_TRITS


class MixerSponge:
    """729-trit state, or a batch_shape + (729,) array of independent
    states; absorb overwrites the rate then permutes, squeeze reads it."""

    def __init__(self, batch_shape: tuple[int, ...] = ()) -> None:
        self.state = np.zeros((*batch_shape, STATE_TRITS), dtype=np.int8)
        self._squeezed = False  # the permutation after a read is owed

    def _transform(self) -> None:
        packed = np.packbits(self.state[..., None, :] == _PLANE_TRITS,
                             axis=-1, bitorder="little").tobytes()
        out = []
        for at in range(0, len(packed), 2 * _PLANE_BYTES):
            x1 = int.from_bytes(packed[at:at + _PLANE_BYTES], "little")
            x2 = int.from_bytes(packed[at + _PLANE_BYTES:at + 2 * _PLANE_BYTES],
                                "little")
            # the sum gives single-trit changes global reach; the a*b
            # product keeps the round nonlinear over GF(3), so difference
            # patterns cannot collapse by linear cancellation
            for shift_a, shift_b, keyed in _ROUND_PLANES:
                # total = sum(u) - 729, so total mod 3 is #(u == 1) - #(u == 2)
                k1, k2 = keyed[(x1.bit_count() - x2.bit_count()) % 3]
                # y = s + k; GF(3) addition on planes
                t = (x1 | k2) ^ (x2 | k1)
                y1, y2 = (x2 | k2) ^ t, (x1 | k1) ^ t
                # a, b = rolls of s; bits past 728 are left over from the
                # doubling and masked off once, at the end of the round
                w1, w2 = x1 | x1 << STATE_TRITS, x2 | x2 << STATE_TRITS
                a1, a2 = w1 >> shift_a, w2 >> shift_a
                b1, b2 = w1 >> shift_b, w2 >> shift_b
                # p = a * (b + 1): b + 1 is 1 where b == 0, 2 where b == 1
                b0 = ~(b1 | b2)
                p1, p2 = (a1 & b0) | (a2 & b1), (a2 & b0) | (a1 & b1)
                # u' = y + p
                t = (y1 | p2) ^ (y2 | p1)
                x1, x2 = ((y2 | p2) ^ t) & _MASK, ((y1 | p1) ^ t) & _MASK
            # planes of trit 1 and of trit -1, so the trit is their difference
            out.append(x2.to_bytes(_PLANE_BYTES, "little"))
            out.append((~(x1 | x2) & _MASK).to_bytes(_PLANE_BYTES, "little"))
        bits = np.unpackbits(
            np.frombuffer(b"".join(out), dtype=np.uint8).reshape(
                *self.state.shape[:-1], 2, _PLANE_BYTES),
            axis=-1, count=STATE_TRITS, bitorder="little").view(np.int8)
        self.state = np.subtract(bits[..., 0, :], bits[..., 1, :]).take(
            _UNSCALE, axis=-1)

    def _settle(self) -> None:
        """Run the permutation that the last squeeze left owed."""
        if self._squeezed:
            self._transform()
            self._squeezed = False

    def absorb(self, trits) -> None:
        block = np.asarray(trits, dtype=np.int8)
        if block.shape[-1] % BLOCK_TRITS:
            raise ValueError(
                f"absorb length {block.shape[-1]} is not a multiple of {BLOCK_TRITS}")
        if block.size and (block.min() < -1 or block.max() > 1):
            raise ValueError("absorb takes trits, values in {-1, 0, 1}")
        self._settle()
        for off in range(0, block.shape[-1], BLOCK_TRITS):
            self.state[..., :BLOCK_TRITS] = block[..., off:off + BLOCK_TRITS]
            self._transform()

    def squeeze(self) -> np.ndarray:
        self._settle()
        self._squeezed = True
        return self.state[..., :BLOCK_TRITS].copy()


def sponge_hash(trits) -> np.ndarray:
    """One-shot 243-trit digest of a trit sequence, zero-padded to whole
    blocks (an empty one to one block); of each row, for equal-length
    rows."""
    trits = np.asarray(trits, dtype=np.int8)
    size = trits.shape[-1]
    pad = -size % BLOCK_TRITS if size else BLOCK_TRITS
    if pad:
        trits = np.concatenate(
            [trits, np.zeros((*trits.shape[:-1], pad), dtype=np.int8)], axis=-1)
    sponge = MixerSponge(trits.shape[:-1])
    sponge.absorb(trits)
    return sponge.squeeze()


def squeeze_blocks(trits, count: int) -> np.ndarray:
    """Absorb a block-multiple trit sequence (or equal-length rows of
    them), then squeeze `count` blocks of 243 trits, concatenated."""
    trits = np.asarray(trits, dtype=np.int8)
    sponge = MixerSponge(trits.shape[:-1])
    sponge.absorb(trits)
    return np.concatenate([sponge.squeeze() for _ in range(count)], axis=-1)
