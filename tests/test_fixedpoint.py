import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.errors import DimensionError
from lockstepsim.fixedpoint import (
    RAW_MAX,
    RAW_MIN,
    FixedPointTensor,
    combine_digests,
    element_count,
    encode_tensor,
    flip_bit,
    tensor_digest,
    tensor_digests,
)
from lockstepsim.rng import fnv1a64

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_element_count_empty_shape_is_empty_tensor():
    assert element_count(()) == 0
    assert element_count((2, 3)) == 6


def test_construction_validates_shape_and_data():
    FixedPointTensor((2, 2), (1, 2, 3, 4))
    with pytest.raises(DimensionError):
        FixedPointTensor((0,), ())
    with pytest.raises(DimensionError):
        FixedPointTensor((2,), (1,))
    with pytest.raises(DimensionError):
        FixedPointTensor((1,), (40000,))


def test_equal_tensors_equal_digests():
    a = FixedPointTensor((3,), (1, -2, 3))
    b = FixedPointTensor((3,), (1, -2, 3))
    assert tensor_digest(a) == tensor_digest(b)


def test_every_single_bit_flip_changes_the_digest():
    base = FixedPointTensor((4,), (100, -100, 0, 32000))
    d0 = tensor_digest(base)
    for elem in range(4):
        for bit in range(16):
            assert tensor_digest(flip_bit(base, elem, bit)) != d0


def test_shape_changes_the_digest():
    a = FixedPointTensor((4,), (1, 2, 3, 4))
    b = FixedPointTensor((2, 2), (1, 2, 3, 4))
    assert tensor_digest(a) != tensor_digest(b)


def test_empty_shape_digest_is_stable():
    a = FixedPointTensor((), ())
    b = FixedPointTensor((), ())
    assert tensor_digest(a) == tensor_digest(b)


def test_flip_bit_examples():
    t = FixedPointTensor((2,), (256, -128))
    assert flip_bit(t, 0, 0).data.tolist() == [257, -128]
    # flipping twice restores the original
    assert flip_bit(flip_bit(t, 1, 15), 1, 15) == t
    with pytest.raises(DimensionError):
        flip_bit(t, 5, 0)
    with pytest.raises(DimensionError):
        flip_bit(t, 0, 16)


def test_combine_digests_order_sensitive():
    assert combine_digests(1, 2) != combine_digests(2, 1)


def test_weight_set_golden_serialization():
    # frozen-on-first-run golden file guards the serialized byte layout
    from lockstepsim.replica import gen_weights

    def tensor(t):
        return {"version": 1, "shape": list(t.shape), "frac_bits": 8, "data": t.data.tolist()}

    ws = gen_weights(7, [4, 3, 2])
    obj = {
        "version": 1,
        "layers": [
            {"weights": tensor(l.weights), "bias": tensor(l.bias), "activation": l.activation}
            for l in ws.layers
        ],
    }
    golden_path = GOLDEN_DIR / "weights_seed7_arch_4_3_2.json"
    golden = json.loads(golden_path.read_text())
    assert obj == golden


def test_encode_rank1_with_negative_element():
    t = FixedPointTensor((2,), (1, -1))
    assert encode_tensor(t) == bytes.fromhex("01000000" "02000000" "0100" "ffff")


def test_encode_rank2():
    t = FixedPointTensor((2, 3), (0, 256, -256, RAW_MIN, RAW_MAX, -2))
    assert encode_tensor(t) == bytes.fromhex(
        "02000000" "02000000" "03000000" "0000" "0001" "00ff" "0080" "ff7f" "feff"
    )


def test_out_of_range_error_names_first_bad_element():
    with pytest.raises(DimensionError, match="element 40000 outside"):
        FixedPointTensor((3,), (1, 40000, -40000))
    with pytest.raises(DimensionError, match="element -40000 outside"):
        FixedPointTensor((3,), (1, -40000, 40000))


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    data = draw(st.lists(st.integers(RAW_MIN, RAW_MAX), min_size=element_count(shape),
                         max_size=element_count(shape)))
    return FixedPointTensor(shape, tuple(data))


@settings(max_examples=100, deadline=None)
@given(tensors())
def test_memoized_digest_equals_fresh_fnv(t):
    expected = fnv1a64(encode_tensor(t))
    assert tensor_digest(t) == expected
    assert tensor_digest(t) == expected


def test_equality_and_hash_ignore_the_memo():
    a = FixedPointTensor((2, 2), (1, -2, 3, -4))
    b = FixedPointTensor((2, 2), (1, -2, 3, -4))
    hash_before = hash(a)
    tensor_digest(a)
    assert a == b and b == a
    assert hash(a) == hash_before == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_block_digests_equal_one_tensor_digests(shape):
    # both rails, zero and a sign change in every block
    n = element_count(shape)
    values = [RAW_MIN, RAW_MAX, 0, -1, 1, 256, -256]
    rows = np.array([[values[(r + k) % 7] for k in range(n)] for r in range(7)], dtype=np.int16)
    block = rows.reshape(7, *shape)
    expected = [fnv1a64(encode_tensor(FixedPointTensor(shape, row))) for row in rows]
    assert tensor_digests(shape, block).tolist() == expected
    assert tensor_digests(shape, rows).tolist() == expected


def test_data_is_a_read_only_int16_copy():
    src = np.array([1, 2], dtype=np.int16)
    t = FixedPointTensor((2,), src)
    src[0] = 9
    assert t.data.dtype == np.int16 and t.data.tolist() == [1, 2]
    with pytest.raises(ValueError):
        t.data[0] = 5
