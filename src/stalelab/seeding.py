"""Stable seed derivation for every RNG stream in the lab.

All randomness (data shards, delay draws, parameter inits, eval batches)
flows through `derive_seed`, so a run is a pure function of its config.

The per-draw streams (one batch per shard, round and inner step; one
delay per worker and round) are many small generators. `seed_table`
hashes a run's keys many rounds at a time: row i is the PCG64 seed state
that `np.random.default_rng((head, *tails[i]))` starts from, computed
with numpy's `SeedSequence` arithmetic vectorized over rows, and
`seeded_generator` builds the generator from one row. The draws are the
same bytes as `default_rng`'s; only numpy's per-key Python hashing is
skipped.

`STREAM_MEMO` keeps, per process and within a byte budget, what cells of
a sweep draw alike: a linear-noise batch's mean row and a delay by their
seed-table row, and a run's eval batch with its reference loss by its
eval seed, each also keyed by every config value its draw reads. A warm
memo gives the bytes of a cold one.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_SEP = b"\x1f"

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a mixed tuple of ints/strings.

    The digest is order-sensitive and collision-resistant, so unrelated
    streams (e.g. worker shards vs. delay sampling) never alias even when
    they share the same master seed.
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(_SEP)
        h.update(str(p).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def entropy_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit words, 0 as [0]."""
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _HashConstant:
    """The running multiplier of SeedSequence's hashmix; the same for every row."""

    def __init__(self, init: int, mult: int):
        self.value = init
        self.mult = mult

    def hash(self, words: np.ndarray) -> np.ndarray:
        words = words ^ np.uint32(self.value)
        self.value = (self.value * self.mult) & _MASK32
        words = words * np.uint32(self.value)
        return words ^ (words >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for every row of an (n, L) uint32 array.

    Row by row this is numpy's `mix_entropy` followed by `generate_state`;
    the hash constants depend only on L, so each step runs over all rows
    at once. Returns a C-contiguous (n, 4) uint64 array.
    """
    n, length = entropy.shape
    hash_a = _HashConstant(_INIT_A, _MULT_A)
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hash_a.hash(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a.hash(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a.hash(entropy[:, src]))

    hash_b = _HashConstant(_INIT_B, _MULT_B)
    words = np.stack([hash_b.hash(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)  # 4 uint64 = 8 uint32
    return np.ascontiguousarray(words.astype("<u4").view("<u8").astype(np.uint64))


def seed_table(head: int, tails: np.ndarray) -> np.ndarray:
    """Seed states of the keys (head, *tails[i]) for every row of an (n, m) int array.

    Row i equals `np.random.SeedSequence((head, *tails[i])).generate_state(4, np.uint64)`.
    Tail values must lie in [0, 2**32), so each takes one entropy word.
    """
    tails = np.asarray(tails)
    if tails.size and (tails.min() < 0 or tails.max() > _MASK32):
        raise ValueError("seed table tails must lie in [0, 2**32)")
    head_words = np.array(entropy_words(head), dtype=np.uint32)
    entropy = np.empty((tails.shape[0], head_words.size + tails.shape[1]), dtype=np.uint32)
    entropy[:, : head_words.size] = head_words
    entropy[:, head_words.size :] = tails
    return _seed_states(entropy)


class _TableRow(ISeedSequence):
    """One `seed_table` row, handed to PCG64 as its SeedSequence output."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        # PCG64 reads the words through a raw pointer, so they must be packed
        self.state = np.ascontiguousarray(state, dtype=np.uint64)
        if self.state.shape != (4,):
            raise ValueError(f"a seed table row has shape (4,), got {self.state.shape}")

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a seed table row holds exactly 4 uint64 words, as PCG64 asks")
        return self.state


def seeded_generator(state: np.ndarray) -> np.random.Generator:
    """The generator `default_rng(key)` would give, from its `seed_table` row.

    PCG64 seeds itself from the row in numpy's own code.
    """
    return np.random.Generator(np.random.PCG64(_TableRow(state)))


STREAM_MEMO_BYTES = 1 << 20  # row bytes plus value bytes the stream memo keeps per process


class StreamMemo:
    """Draws from seed rows, kept by (params, row bytes) while the kept bytes (the row's bytes
    plus nbytes per value) fit the budget; params hold every value the draw reads besides the row.

    A row is a seed-table row (a batch's mean noise row, a delay) or a run's eval seed as one
    uint64 (its eval batch and reference loss, whose arrays the draw makes read-only, since every
    cell with that key reads the same ones)."""

    def __init__(self, budget: int):
        self.budget, self.used, self.tables = budget, 0, {}

    def draw(self, params: tuple, rows: np.ndarray, draw, nbytes):
        """draw(row) for one row, or a list of them for an (n, ...) stack of rows; each is the value
        the memo keeps for its row where it keeps one. nbytes is an int, or a function of the drawn
        value. params' table is looked up once per call."""
        table = self.tables.get(params)
        if table is None:
            table = self.tables[params] = {}
        values = []
        for row in rows if rows.ndim == 2 else rows[None]:
            key = row.tobytes()
            if key in table:
                values.append(table[key])
                continue
            value = draw(row)
            size = len(key) + (nbytes(value) if callable(nbytes) else nbytes)
            if self.used + size <= self.budget:
                table[key], self.used = value, self.used + size
            values.append(value)
        return values if rows.ndim == 2 else values[0]

    def clear(self):
        self.tables, self.used = {}, 0


STREAM_MEMO = StreamMemo(STREAM_MEMO_BYTES)
