"""Q7.8 fixed-point values and their content digest.

Every value is a 16-bit signed integer with 8 fractional bits
(real = raw / 256), held in an int16 array. Bit-exactness is the whole
point: equality of two healthy channels' outputs is decided by comparing
digests, so the digest must change for any single-bit difference in shape or data.

Digest: FNV-1a 64-bit over the little-endian encoding of the shape
(rank, then each dimension, as unsigned 32-bit words) followed by the
values in row-major order (each as a signed 16-bit word). `tensor_digest`
hashes one array; `tensor_digests` hashes each array of a block of arrays
of one shape at once.
"""

from __future__ import annotations

import struct

import numpy as np

from .rng import fnv1a64, fnv1a64_rows

FRAC_BITS = 8
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 15)
RAW_MAX = (1 << 15) - 1


def _encode_shape(shape) -> bytes:
    return struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)


def tensor_digest(array: np.ndarray) -> int:
    """64-bit digest of an int16 array; a pure function of its shape and values."""
    return fnv1a64(_encode_shape(array.shape) + array.astype("<i2").tobytes())


def tensor_digests(shape, rows: np.ndarray) -> np.ndarray:
    """`tensor_digest` of an array of `shape` holding each row of the int16
    array `rows` (one array per index of axis 0), as a uint64 array."""
    data = np.ascontiguousarray(rows, dtype="<i2").reshape(len(rows), -1)
    return fnv1a64_rows(fnv1a64(_encode_shape(shape)), data.view(np.uint8))
