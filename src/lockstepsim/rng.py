"""SplitMix64 random streams with named child streams.

One root seed per experiment. Every consumer (jitter models, fault
triggers, weight/frame synthesis) takes its own child stream, whose seed
`derive_seed` gives from the root seed and the consumer's name, so the
number of draws one consumer makes can never shift the values another one
sees, and siblings are the same streams in any order.

SplitMix64 is counter-addressed: draw k (from 1) of the stream with seed s
is mix64(s + k * gamma), so `draws_at` computes any set of draws of many
streams at once as uint64 arrays (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014). A uniform in [0, 1) is a
draw's top 53 bits k over 2**53; `below` tests it against a probability
as the integer k.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
MIX_BLOCK = 8192  # the elements `mix64s` mixes at a time: 64 KB, so each temporary stays in cache

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """SplitMix64 output function."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash over a byte string; `h` continues an earlier hash."""
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def mix64s(z: np.ndarray) -> np.ndarray:
    """`mix64` of each element of the C-contiguous uint64 array `z`, in
    place, `MIX_BLOCK` elements at a time; returns `z`."""
    flat = z.reshape(-1)
    for a in range(0, flat.size, MIX_BLOCK):
        b = flat[a:a + MIX_BLOCK]
        b ^= b >> np.uint64(30)
        b *= np.uint64(_MIX1)
        b ^= b >> np.uint64(27)
        b *= np.uint64(_MIX2)
        b ^= b >> np.uint64(31)
    return z


def draws_at(seeds, counters: np.ndarray) -> np.ndarray:
    """Draw k of the stream of each seed for each k (from 1) of the uint64
    array `counters`, `seeds` and `counters` broadcast together."""
    return mix64s(np.asarray(seeds, dtype=np.uint64) + counters * np.uint64(_GAMMA))


def draws(seeds, count: int) -> np.ndarray:
    """Draws 1 .. count of the stream of each seed in `seeds` (seeds in
    [0, 2**64)), as a uint64 array of shape (len(seeds), count)."""
    return draws_at(np.asarray(seeds, dtype=np.uint64)[:, None], np.arange(1, count + 1, dtype=np.uint64))


def _mantissa_bound(p: float) -> int:
    """The t with k / 2**53 < p exactly when k < t, for k in [0, 2**53)."""
    return math.ceil(p * (1 << 53))  # p * 2**53 is exact


def below(seed: int, counters: np.ndarray, p: float) -> np.ndarray:
    """Whether the uniform of each draw `counters` of the stream `seed` falls
    below p, compared as the draw's top 53 bits k (the uniform is k / 2**53)."""
    return draws_at(seed, counters) >> np.uint64(11) < _mantissa_bound(p)


def fnv1a64_rows(h: int, rows: np.ndarray) -> np.ndarray:
    """FNV-1a 64-bit, continued from the hash `h`, over the bytes of each row
    of the uint8 array `rows`: a uint64 array with one hash per row. The loop
    runs over the byte columns and each step over every row at once, each
    column widened as it is taken, so no uint64 copy of `rows` is made."""
    out = np.full(len(rows), h, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in rows.T:
        out ^= column
        out *= prime
    return out


def derive_seed(seed: int, name: str) -> int:
    """Deterministic seed of the child stream `name` under root `seed`."""
    return mix64((seed & MASK64) ^ fnv1a64(name.encode("utf-8")))


def derive_seeds(seed: int, prefix: str, ids) -> np.ndarray:
    """`derive_seed(seed, f"{prefix}{i}")` of each int64 `i` of `ids`, as a
    uint64 array: the prefix's hash continued over the text of each id, one
    `fnv1a64_rows` per text length, its digits made by divmod by 10."""
    ids = np.asarray(ids, dtype=np.int64)
    magnitude = np.abs(ids).view(np.uint64)  # abs(-2**63) wraps to -2**63: 2**63 as a uint64
    width = (ids < 0) + 1 + np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), magnitude, "right")
    h = np.empty(len(ids), dtype=np.uint64)
    for w in np.flatnonzero(np.bincount(width)):
        at = width == w
        text = np.empty((at.sum(), w), dtype=np.uint8)
        rest = magnitude[at]
        for column in range(w - 1, -1, -1):
            rest, text[:, column] = np.divmod(rest, np.uint64(10))
        text += ord("0")
        text[ids[at] < 0, 0] = ord("-")  # in place of a 0: a negative id has one digit fewer
        h[at] = fnv1a64_rows(fnv1a64(prefix.encode("utf-8")), text)
    return mix64s(np.uint64(seed & MASK64) ^ h)
