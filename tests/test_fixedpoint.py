import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.fixedpoint import RAW_MAX, RAW_MIN, tensor_digest, tensor_digests
from lockstepsim.rng import fnv1a64

GOLDEN_DIR = Path(__file__).parent / "golden"


def int16(values, shape=None):
    array = np.array(values, dtype=np.int16)
    return array if shape is None else array.reshape(shape)


def test_equal_arrays_equal_digests():
    a = int16([1, -2, 3, 4], (2, 2))
    assert tensor_digest(a) == tensor_digest(a.copy())
    # a strided view hashes as its row-major values
    assert tensor_digest(a.T) == tensor_digest(np.ascontiguousarray(a.T))


def test_every_single_bit_flip_changes_the_digest():
    base = int16([100, -100, 0, 32000])
    d0 = tensor_digest(base)
    for elem in range(4):
        for bit in range(16):
            flipped = base.copy()
            flipped.view(np.uint16)[elem] ^= 1 << bit
            assert tensor_digest(flipped) != d0


def test_shape_changes_the_digest():
    a = int16([1, 2, 3, 4])
    assert tensor_digest(a) != tensor_digest(a.reshape(2, 2))


def test_weight_set_golden_serialization():
    # frozen-on-first-run golden file guards the serialized byte layout
    from lockstepsim.replica import gen_weights

    def tensor(t):
        return {"version": 1, "shape": list(t.shape), "frac_bits": 8, "data": t.ravel().tolist()}

    ws = gen_weights(7, [4, 3, 2])
    obj = {
        "version": 1,
        "layers": [
            {"weights": tensor(w), "bias": tensor(b), "activation": "relu" if i < len(ws) - 1 else "none"}
            for i, (w, b) in enumerate(ws)
        ],
    }
    golden_path = GOLDEN_DIR / "weights_seed7_arch_4_3_2.json"
    golden = json.loads(golden_path.read_text())
    assert obj == golden


def test_digest_of_rank1_with_negative_element():
    assert tensor_digest(int16([1, -1])) == fnv1a64(bytes.fromhex("01000000" "02000000" "0100" "ffff"))


def test_digest_of_rank2():
    t = int16([0, 256, -256, RAW_MIN, RAW_MAX, -2], (2, 3))
    assert tensor_digest(t) == fnv1a64(bytes.fromhex(
        "02000000" "02000000" "03000000" "0000" "0001" "00ff" "0080" "ff7f" "feff"
    ))


def encode(shape, values):
    """The digest's byte encoding, written out: rank and dimensions as
    little-endian u32, then each value as a little-endian i16."""
    return struct.pack(f"<{len(shape) + 1}I{len(values)}h", len(shape), *shape, *values)


@st.composite
def arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    n = int(np.prod(shape))
    return shape, draw(st.lists(st.integers(RAW_MIN, RAW_MAX), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(arrays())
def test_digest_is_fnv_of_the_encoding(case):
    shape, values = case
    assert tensor_digest(int16(values, shape)) == fnv1a64(encode(shape, values))


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_block_digests_equal_one_array_digests(shape):
    # both rails, zero and a sign change in every block
    n = int(np.prod(shape))
    values = [RAW_MIN, RAW_MAX, 0, -1, 1, 256, -256]
    rows = int16([[values[(r + k) % 7] for k in range(n)] for r in range(7)])
    block = rows.reshape(7, *shape)
    expected = [tensor_digest(array) for array in block]
    assert tensor_digests(shape, block).tolist() == expected
    assert tensor_digests(shape, rows).tolist() == expected
