"""Q7.8 fixed-point tensors and their content digest.

Every value is a 16-bit signed integer with 8 fractional bits
(real = raw / 256). Bit-exactness is the whole point: equality of two
healthy channels is decided by comparing digests, so the digest must
change for any single-bit difference in shape or data.

A tensor stores its data as a flat, read-only `int16` array in row-major
order. Equality and hashing go by shape and values, as for a tuple of
ints.

Digest: FNV-1a 64-bit over the little-endian encoding of the shape
(rank, then each dimension, as unsigned 32-bit words) followed by the
data (each element as a signed 16-bit word). A tensor with the empty
shape holds no data; its digest covers the shape encoding alone.

A tensor is immutable, so its digest is computed on first use and then
memoized on the instance. Weights are hashed once per run, and a bit flip
builds a new tensor that hashes afresh. `tensor_digests` gives the same
digests for a whole block of tensors of one shape at once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .rng import fnv1a64, fnv1a64_rows

FRAC_BITS = 8
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 15)
RAW_MAX = (1 << 15) - 1


def element_count(shape) -> int:
    """Number of elements for a shape; the empty shape is the empty tensor."""
    if not shape:
        return 0
    n = 1
    for d in shape:
        n *= d
    return n


@dataclass(frozen=True, eq=False)
class FixedPointTensor:
    """`data` may be given as any flat sequence of ints; it is stored as a
    read-only int16 array of its own."""

    shape: tuple
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(d <= 0 for d in shape):
            raise DimensionError(f"shape dimensions must be positive: {shape}")
        if isinstance(self.data, np.ndarray) and self.data.dtype == np.int16:
            data = self.data.reshape(-1).copy()
        else:
            values = [int(v) for v in self.data]
            if values and (min(values) < RAW_MIN or max(values) > RAW_MAX):
                bad = next(v for v in values if not (RAW_MIN <= v <= RAW_MAX))
                raise DimensionError(f"element {bad} outside signed 16-bit range")
            data = np.array(values, dtype=np.int16)
        if data.size != element_count(shape):
            raise DimensionError(f"data length {data.size} does not match shape {shape}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __eq__(self, other):
        if not isinstance(other, FixedPointTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.shape, tuple(self.data.tolist())))

    @cached_property
    def _digest(self) -> int:
        # Stored in the instance __dict__, outside the dataclass fields, so
        # == and hash never see it.
        return fnv1a64(encode_tensor(self))


def _encode_shape(shape) -> bytes:
    return struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)


def encode_tensor(t: FixedPointTensor) -> bytes:
    return _encode_shape(t.shape) + t.data.astype("<i2").tobytes()


def tensor_digest(t: FixedPointTensor) -> int:
    """64-bit digest; pure function of shape and data, memoized on `t`."""
    return t._digest


def tensor_digests(shape, rows: np.ndarray) -> np.ndarray:
    """`tensor_digest` of a tensor of `shape` holding each row of the int16
    array `rows` (one tensor per index of axis 0), as a uint64 array."""
    data = np.ascontiguousarray(rows, dtype="<i2").reshape(len(rows), -1)
    return fnv1a64_rows(fnv1a64(_encode_shape(shape)), data.view(np.uint8))


def combine_digests(*digests: int) -> int:
    """Order-sensitive combination of 64-bit digests."""
    return fnv1a64(b"".join(struct.pack("<Q", d) for d in digests))


def flip_bit(t: FixedPointTensor, element_index: int, bit: int) -> FixedPointTensor:
    """New tensor with one bit XORed in the two's-complement image of one element."""
    if not (0 <= element_index < t.data.size):
        raise DimensionError(f"element index {element_index} out of range for {t.shape}")
    if not (0 <= bit <= 15):
        raise DimensionError(f"bit index {bit} outside [0, 15]")
    data = t.data.copy()
    data.view(np.uint16)[element_index] ^= 1 << bit
    return FixedPointTensor(t.shape, data)


def argmax_index(t: FixedPointTensor) -> int:
    """Index of the maximum element; ties resolve to the lowest index."""
    if not t.data.size:
        raise DimensionError("argmax of an empty tensor")
    return int(t.data.argmax())

