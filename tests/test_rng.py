import tracemalloc

import numpy as np
import pytest

from lockstepsim.replica import gen_weights
from lockstepsim.rng import (
    MASK64, MIX_BLOCK, below, derive_seed, derive_seeds, draws, draws_at, fnv1a64, fnv1a64_rows, mix64, mix64s,
)
from oracles import Rng

# Published SplitMix64 output for seed 0 (used as cross-implementation
# reference vectors in several independent codebases).
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_seed0_reference_vectors():
    assert tuple(draws([0], 3)[0].tolist()) == SEED0_OUTPUTS
    r = Rng(0)
    assert tuple(r.next_u64() for _ in range(3)) == SEED0_OUTPUTS


def test_same_seed_same_stream():
    a = Rng(12345)
    b = Rng(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_uniform_range_and_determinism():
    r = Rng(777)
    vals = [r.uniform() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    replay = Rng(777)
    assert vals == [replay.uniform() for _ in range(5000)]


def test_randrange_bounds():
    r = Rng(9)
    for _ in range(2000):
        assert 0 <= r.randrange(7) < 7


def test_child_streams_do_not_depend_on_parent_draws():
    a = Rng(42)
    before = a.child("x")
    for _ in range(50):
        a.next_u64()
    after = a.child("x")
    assert before.next_u64() == after.next_u64()


def test_sibling_streams_independent_of_creation_order():
    a = Rng(42)
    x1 = a.child("x")
    y1 = a.child("y")
    b = Rng(42)
    y2 = b.child("y")
    x2 = b.child("x")
    assert x1.next_u64() == x2.next_u64()
    assert y1.next_u64() == y2.next_u64()


def test_named_children_differ():
    a = Rng(42)
    assert a.child("x").next_u64() != a.child("y").next_u64()


def test_derive_seed_matches_child():
    assert Rng(derive_seed(42, "x")).next_u64() == Rng(42).child("x").next_u64()


def test_mix64_and_fnv_are_64bit():
    assert 0 <= mix64(123456789) <= MASK64
    assert 0 <= fnv1a64(b"abc") <= MASK64
    # FNV-1a published anchor for the empty string
    assert fnv1a64(b"") == 0xCBF29CE484222325


def test_array_draws_are_randrange_draw_for_draw():
    # seeds near 2**64: the counter seed + k * gamma wraps within the stream
    seeds = [0, 12345, MASK64, MASK64 - 2, 2**63 + 1]
    for span in (513, 8193):
        values = (draws(seeds, 40) % span).tolist()
        for seed, row in zip(seeds, values):
            rng = Rng(seed)
            assert row == [rng.randrange(span) for _ in range(40)]


def test_row_hashes_continue_fnv1a64():
    rows = [bytes(range(k, k + 9)) for k in (0, 100, 247)]
    h = fnv1a64(b"prefix")
    out = fnv1a64_rows(h, np.frombuffer(b"".join(rows), dtype="uint8").reshape(3, 9))
    assert out.tolist() == [fnv1a64(r, h) for r in rows] == [fnv1a64(b"prefix" + r) for r in rows]


def test_row_hashes_of_a_strided_view_widen_one_column_at_a_time():
    # a (4096, 64) block of a strided view: widening the whole block to
    # uint64 took a 2.1 MB peak, one column at a time takes the hashes' 32 KB
    block = np.random.default_rng(5).integers(0, 256, (8192, 128), dtype=np.uint8)[::2, 1::2]
    assert block.shape == (4096, 64) and not block.flags.c_contiguous
    h = fnv1a64(b"prefix")
    fnv1a64_rows(h, block)  # warm-up
    tracemalloc.start()
    try:
        out = fnv1a64_rows(h, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024
    assert out.tolist() == [fnv1a64(row.tobytes(), h) for row in block]


@pytest.mark.parametrize("start", [0, 1, 7, 1000])
def test_draws_from_start_continue_a_stepped_stream(start):
    seeds = [0, 5, MASK64]
    got = draws_at(np.array(seeds, dtype=np.uint64)[:, None], np.arange(start + 1, start + 7, dtype=np.uint64))
    for row, seed in zip(got.tolist(), seeds):
        r = Rng(seed)
        for _ in range(start):
            r.next_u64()
        assert row == [r.next_u64() for _ in range(6)]


@pytest.mark.parametrize("p", [0.0, 5e-324, 0.02, 1 / 3, 0.5, 1 - 2**-53, 1.0])
@pytest.mark.parametrize("start", [0, 1000])
def test_below_is_the_scalar_uniform_compare(start, p):
    for seed in (0, 5, MASK64):
        r = Rng(seed)
        for _ in range(start):
            r.next_u64()
        want = [r.uniform() < p for _ in range(2000)]
        assert below(seed, np.arange(start + 1, start + 2001, dtype=np.uint64), p).tolist() == want


@pytest.mark.parametrize("shape", [5, 0, 1, MIX_BLOCK - 1, MIX_BLOCK, MIX_BLOCK + 1, 3 * MIX_BLOCK + 5, (1500, 32)])
def test_array_mix64_is_mix64(shape):
    # the ends of the range and its top bit first, then counter-like values
    size = int(np.prod(shape))
    zs = ([0, 1, 12345, MASK64, 2**63] + [(i * 0x9E3779B97F4A7C15) & MASK64 for i in range(size)])[:size]
    z = np.array(zs, dtype=np.uint64).reshape(shape)
    assert mix64s(z) is z
    assert z.ravel().tolist() == [mix64(v) for v in zs]


@pytest.mark.parametrize("seed", [0, 7, MASK64])
def test_derive_seeds_is_derive_seed_per_id(seed):
    # every width of text, on both sides of each power of ten, signed, at
    # both ends of int64, and the widths mixed out of order
    powers = [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
    ends = [-2**63, -(2**63 - 1), 2**63 - 1]
    mixed = [10**12 + 7, -3, 40, 0, -(10**18), 9, 123456, -10, 2**63 - 1, 5]
    for ids in (list(range(2001)), powers, [-i for i in powers], ends, mixed, [-7]):
        assert derive_seeds(seed, "frame.", ids).tolist() == [derive_seed(seed, f"frame.{i}") for i in ids]
    assert derive_seeds(seed, "frame.", []).tolist() == []


def test_scalar_seeds_are_reduced_mod_2_64():
    assert [a.tolist() for layer in gen_weights(-1, [3, 2]) for a in layer] == \
        [a.tolist() for layer in gen_weights(MASK64, [3, 2]) for a in layer]


def test_draws_at_reads_any_draws_of_a_stepped_stream():
    # counters in any order, repeated, and past 2**32
    counters = [5, 1, 5, 2**40, 3]
    for seed in (0, 5, MASK64):
        r = Rng(seed)
        stepped = [r.next_u64() for _ in range(5)]
        got = draws_at(seed, np.array(counters, dtype=np.uint64)).tolist()
        assert got[:3] + got[4:] == [stepped[4], stepped[0], stepped[4], stepped[2]]
        assert got[3] == mix64(seed + 2**40 * 0x9E3779B97F4A7C15)
