"""Sponge over 243-trit blocks.

MixerSponge is a fast, deterministic, non-cryptographic
permute-and-substitute mixer for tests and simulation; every hash in
the package goes through it. A ternary Keccak (KERL) is deliberately
NOT implemented.

Each of the 8 rounds of the mixer permutation gathers the 729-trit state
s by the stride _PERM, takes two neighbours of the gathered state,
a = roll(s, 1) and b = roll(s, offset of the round), and sets every trit
to

    (s + 2a + b + a*b + total + key) mod 3 - 1

where total is the trit sum of the state and key the round's key trit
for that position. The code computes exactly this, more cheaply: the
stride and both rolls are composed at import into one (3, 729) gather
per round; the sum is taken before gathering, since a permutation keeps
it; and the formula is one lookup in an 81-entry table indexed by s, a,
b and (key + total) mod 3. Digests equal the roll formula's trit for
trit; the tests keep that formula as the oracle.

A sponge holds one state or a batch of independent states, shape
(..., 729); every step acts on each state alike, so k chains that do not
depend on each other (fragments, key segments) advance through one
permutation call instead of k. The permutation that follows a
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

# The round works on u = trit + 1 in {0, 1, 2} (int8). _GATHER[r] holds,
# for every position, where s, a and b of round r sit in the state
# before it: roll(x[_PERM], k) == x[roll(_PERM, k)].
_GATHER = np.stack([
    np.stack([_PERM, np.roll(_PERM, 1), np.roll(_PERM, offset)])
    for offset in _OFFSETS
])
_PLACES = np.array([27, 9, 3], dtype=np.int8)
# _KEYED[r, c] = (key + c) mod 3 per position; c = total mod 3, which is
# sum(u) mod 3 because 729 is a multiple of 3
_KEYED = np.stack([
    np.stack([(keys + c) % 3 for c in range(3)]) for keys in _ROUND_KEYS
]).astype(np.int8)
# _MIX[27(s+1) + 9(a+1) + 3(b+1) + (key + total) mod 3] is the new u
_MIX = np.array([
    (s + 2 * a + b + a * b + k) % 3
    for s in (-1, 0, 1) for a in (-1, 0, 1) for b in (-1, 0, 1)
    for k in range(3)
], dtype=np.int8)


class MixerSponge:
    """729-trit state, or a batch_shape + (729,) array of independent
    states; absorb overwrites the rate then permutes, squeeze reads it."""

    def __init__(self, batch_shape: tuple[int, ...] = ()) -> None:
        self.state = np.zeros((*batch_shape, STATE_TRITS), dtype=np.int8)
        self._squeezed = False  # the permutation after a read is owed

    def _transform(self) -> None:
        u = self.state + np.int8(1)
        for rnd in range(_ROUNDS):
            # the sum gives single-trit changes global reach; the a*b
            # product keeps the round nonlinear over GF(3), so difference
            # patterns cannot collapse by linear cancellation
            keyed = _KEYED[rnd, u.sum(axis=-1) % 3]
            gathered = u.take(_GATHER[rnd], axis=-1)
            u = _MIX.take(np.einsum("c,...cn->...n", _PLACES, gathered) + keyed)
        self.state = u - np.int8(1)

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
