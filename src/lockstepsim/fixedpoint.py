"""Q7.8 fixed-point tensors and their content digest.

Every value is a 16-bit signed integer with 8 fractional bits
(real = raw / 256). Bit-exactness is the whole point: equality of two
healthy channels is decided by comparing digests, so the digest must
change for any single-bit difference in shape or data.

Digest: FNV-1a 64-bit over the little-endian encoding of the shape
(rank, then each dimension, as unsigned 32-bit words) followed by the
data (each element as a signed 16-bit word). A tensor with the empty
shape holds no data; its digest covers the shape encoding alone.

A tensor is immutable, so its digest is computed on first use and then
memoized on the instance. Weights are hashed once per run, and a bit flip
builds a new tensor that hashes afresh. The encoding and the digest
values are unchanged by the memo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError
from .rng import fnv1a64

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


@dataclass(frozen=True)
class FixedPointTensor:
    shape: tuple
    data: tuple

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        data = tuple(int(v) for v in self.data)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)
        if any(d <= 0 for d in shape):
            raise DimensionError(f"shape dimensions must be positive: {shape}")
        if len(data) != element_count(shape):
            raise DimensionError(f"data length {len(data)} does not match shape {shape}")
        if data and (min(data) < RAW_MIN or max(data) > RAW_MAX):
            bad = next(v for v in data if not (RAW_MIN <= v <= RAW_MAX))
            raise DimensionError(f"element {bad} outside signed 16-bit range")

    @property
    def element_count(self) -> int:
        return len(self.data)

    @cached_property
    def _digest(self) -> int:
        # Stored in the instance __dict__, outside the dataclass fields, so
        # == and hash never see it.
        return fnv1a64(encode_tensor(self))


def encode_tensor(t: FixedPointTensor) -> bytes:
    rank = len(t.shape)
    return struct.pack(f"<{rank + 1}I{len(t.data)}h", rank, *t.shape, *t.data)


def tensor_digest(t: FixedPointTensor) -> int:
    """64-bit digest; pure function of shape and data, memoized on `t`."""
    return t._digest


def combine_digests(*digests: int) -> int:
    """Order-sensitive combination of 64-bit digests."""
    return fnv1a64(b"".join(struct.pack("<Q", d) for d in digests))


def flip_bit(t: FixedPointTensor, element_index: int, bit: int) -> FixedPointTensor:
    """New tensor with one bit XORed in the two's-complement image of one element."""
    if not (0 <= element_index < len(t.data)):
        raise DimensionError(f"element index {element_index} out of range for {t.shape}")
    if not (0 <= bit <= 15):
        raise DimensionError(f"bit index {bit} outside [0, 15]")
    raw = t.data[element_index] & 0xFFFF
    raw ^= 1 << bit
    if raw >= 1 << 15:
        raw -= 1 << 16
    data = list(t.data)
    data[element_index] = raw
    return FixedPointTensor(t.shape, tuple(data))


def argmax_index(t: FixedPointTensor) -> int:
    """Index of the maximum element; ties resolve to the lowest index."""
    if not t.data:
        raise DimensionError("argmax of an empty tensor")
    return t.data.index(max(t.data))


def tensor_to_json(t: FixedPointTensor) -> dict:
    return {
        "version": 1,
        "shape": list(t.shape),
        "frac_bits": FRAC_BITS,
        "data": list(t.data),
    }


def tensor_from_json(obj: dict) -> FixedPointTensor:
    if obj.get("version") != 1:
        raise DimensionError(f"unsupported tensor serialization version: {obj.get('version')!r}")
    if obj.get("frac_bits", FRAC_BITS) != FRAC_BITS:
        raise DimensionError(f"frac_bits is fixed at {FRAC_BITS}, got {obj['frac_bits']!r}")
    return FixedPointTensor(tuple(obj["shape"]), tuple(obj["data"]))
