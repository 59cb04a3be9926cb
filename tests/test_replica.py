from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_network, oracle_tensor
from lockstepsim.errors import ConfigError, DimensionError
from lockstepsim.faults import flip_weight_bits
from lockstepsim.fixedpoint import RAW_MAX, RAW_MIN, tensor_digest
from lockstepsim.replica import (
    WEIGHT_CLAMP,
    EngineConfig,
    _layer,
    gen_frame,
    gen_frames,
    gen_weights,
    infer,
    layer_costs,
    layer_ids,
)
from oracles import _gen_frame, _gen_weights, _infer, infer_reference

ENGINE = EngineConfig()


def layer(weight_rows, bias):
    return np.array(weight_rows, dtype=np.int16), np.array(bias, dtype=np.int16)


def identity(width):
    """A last layer that passes its input through unchanged."""
    return layer(np.eye(width, dtype=np.int16) * 256, [0] * width)


def frame(*values):
    """A one-frame block."""
    return np.array([values], dtype=np.int16)


def test_gen_weights_deterministic():
    a = gen_weights(11, [3, 5, 2])
    b = gen_weights(11, [3, 5, 2])
    assert all(np.array_equal(x, y) for la, lb in zip(a, b) for x, y in zip(la, lb))


def test_gen_weights_seeds_differ():
    [(wa, ba)], [(wb, bb)] = gen_weights(1, [2, 2]), gen_weights(2, [2, 2])
    assert not np.array_equal(wa, wb) and not np.array_equal(ba, bb)


def test_gen_weights_validates_arch():
    with pytest.raises(ConfigError):
        gen_weights(1, [2])
    with pytest.raises(ConfigError):
        gen_weights(1, [])
    with pytest.raises(ConfigError):
        gen_weights(1, [2, 0])
    with pytest.raises(ConfigError):
        gen_weights(1, [2, 2000])


def test_gen_weights_range_and_shapes():
    ws = gen_weights(3, [4, 6, 5, 2])
    assert [(w.shape, b.shape) for w, b in ws] == [((6, 4), (6,)), ((5, 6), (5,)), ((2, 5), (2,))]
    for w, b in ws:
        assert w.dtype == b.dtype == np.int16
        for v in w.ravel().tolist() + b.tolist():
            assert -WEIGHT_CLAMP <= v <= WEIGHT_CLAMP


def test_gen_frame_deterministic_and_bounded():
    a = gen_frame(5, 3, (4,))
    assert a.shape == (1, 4) and a.dtype == np.int16
    assert np.array_equal(gen_frame(5, 3, (4,)), a)
    assert not np.array_equal(gen_frame(5, 4, (4,)), a)
    assert all(-256 <= v <= 256 for v in a.ravel().tolist())


def test_infer_identity():
    out, _, _ = infer((identity(2),), frame(256, -128), ENGINE)
    assert out.tolist() == [[256, -128]]


def test_infer_half_sum_relu():
    # 0.5*1.0 + 0.5*1.0 == 1.0 exactly after the rounding shift
    ws = (layer([[128, 128]], [0]), identity(1))
    out, _, _ = infer(ws, frame(256, 256), ENGINE)
    assert out.tolist() == [[256]]


def test_round_half_to_even():
    # acc = 128 -> 0.5 rounds to even 0; acc = 384 -> 1.5 rounds to even 2;
    # negative side: acc = -128 -> -0.5 rounds to 0; acc = -384 -> -1.5 to -2
    for w, want in ((1, 0), (3, 2), (-1, 0), (-3, -2)):
        out, _, _ = infer((layer([[w]], [0]),), frame(128), ENGINE)
        assert out.tolist() == [[want]], w


# every accumulator of a supported net: 1024 products below 2**30 and a bias
# term below 2**23 stay within 2**41
ACCUMULATORS = st.integers(-(2**41), 2**41)
TIES = st.integers(-(2**33), 2**33 - 1).map(lambda q: 256 * q + 128)


# inputs of weight -2**15 that one accumulator's quotient is spread over:
# 2049 of them keep each one an int16 for every accumulator up to 2**41
SPREAD = 2049


def accumulated(accs):
    """What `_layer` gives for each accumulator in `accs`: it runs a layer
    whose one output accumulates acc = r + 2**15 * q (0 <= r < 2**15) from
    one frame per acc, r on an input of weight 1 and -q spread over `SPREAD`
    inputs of weight -2**15."""
    q, r = np.divmod(np.array(accs, dtype=np.int64), 1 << 15)
    base, extra = np.divmod(-q, SPREAD)
    frames = np.column_stack([r, base[:, None] + (np.arange(SPREAD) < extra[:, None])]).astype(np.int16)
    w, b = layer([[1] + [RAW_MIN] * SPREAD], [0])
    return _layer(frames, w, b, relu=False)[:, 0]


def saturated(acc):
    """acc / 256 rounded half to even and saturated, from exact rationals."""
    return min(max(round(Fraction(acc, 256)), RAW_MIN), RAW_MAX)


@given(st.lists(ACCUMULATORS | TIES, min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_layer_rounding_is_half_to_even(accs):
    assert accumulated(accs).tolist() == [saturated(acc) for acc in accs]


def test_layer_rounding_of_the_ties_near_zero():
    accs = (256 * np.arange(-5000, 5000) + 128).tolist()
    assert accumulated(accs).tolist() == [round(Fraction(acc, 256)) for acc in accs]


def test_relu_clamps_negatives():
    # the hidden layer applies ReLU, the last one does not
    ws = (layer([[-256]], [0]), identity(1))
    out, _, _ = infer(ws, frame(256), ENGINE)
    assert out.tolist() == [[0]]
    out, _, _ = infer(ws[:1], frame(256), ENGINE)
    assert out.tolist() == [[-256]]


def test_saturation_no_wrap():
    out, _, _ = infer((layer([[32767, 32767]], [32767]),), frame(32767, 32767), ENGINE)
    assert out.tolist() == [[32767]]
    out, _, _ = infer((layer([[-32768, -32768]], [-32768]),), frame(32767, 32767), ENGINE)
    assert out.tolist() == [[-32768]]


def test_accumulator_bound_for_supported_sizes():
    # per-MAC product bound 2**30, bias term bound 2**23, max width 1024:
    # float64 holds every partial sum exactly
    assert 1024 * 2**30 + 2**23 < 2**41 < 2**53


def rails_layer():
    """A width-1024 layer at its extremes and 8 frames at the rails: weights
    at -2**15 and 2**15 - 1 (what bit-15 flips leave), inputs at RAW_MIN and
    RAW_MAX, biases at +/-WEIGHT_CLAMP. Row 0 on frame 0 sums 1024 products
    of 2**30; row 1 on frame 1 sums products of +/-2**30 that cancel to 1 in
    each group of four."""
    rng = np.random.default_rng(23)
    rails = np.array([RAW_MIN, RAW_MAX], dtype=np.int16)
    w, frames = rng.choice(rails, (16, 1024)), rng.choice(rails, (8, 1024))
    b = rng.choice(np.array([-WEIGHT_CLAMP, WEIGHT_CLAMP], dtype=np.int16), 16)
    w[0], frames[0] = RAW_MIN, RAW_MIN
    w[1], frames[1], b[1] = np.tile(rails, 512), np.repeat(np.tile(rails, 256), 2), WEIGHT_CLAMP
    return (w, b), frames


def test_a_1024_wide_layer_at_its_extremes_equals_python_ints():
    (w, b), frames = rails_layer()
    accs = [[sum(int(a) * int(v) for a, v in zip(row, x)) + (int(bias) << 8) for row, bias in zip(w, b)]
            for x in frames]
    assert accs[0][0] == 2**40 + (int(b[0]) << 8) and accs[1][1] == 256 + (WEIGHT_CLAMP << 8)
    want = [[saturated(acc) for acc in row] for row in accs]
    assert want[0][0] == RAW_MAX and want[1][1] == WEIGHT_CLAMP + 1
    assert _layer(frames, w, b, relu=False).tolist() == want
    assert _layer(frames, w, b, relu=True).tolist() == [[max(y, 0) for y in row] for row in want]


def test_a_block_infers_the_bits_of_each_of_its_frames():
    # a block runs a matrix-matrix BLAS kernel, one frame a matrix-vector one
    rails, frames = rails_layer()
    for ws, block in (((rails,), frames), (gen_weights(5, [1024, 1024, 16]), gen_frames(5, range(40), (1024,)))):
        outs, _, digests = infer(ws, block, ENGINE)
        for f in range(len(block)):
            one, _, digest = infer(ws, block[f:f + 1], ENGINE)
            assert one.tobytes() == outs[f:f + 1].tobytes() and digest.tolist() == [digests[f]]


def test_layer_ids_are_equal_exactly_where_the_parameters_are():
    ws = gen_weights(5, [6, 5, 4])
    flipped = flip_weight_bits(ws, [(1, 3, 0)])
    undone = flip_weight_bits(ws, [(0, 2, 7), (0, 2, 7)])  # new arrays, the clean values
    both = flip_weight_bits(ws, [(1, 3, 0), (0, 1, 1)])
    networks = [ws, flipped, undone, both]
    assert [layer_ids(layers, networks) for layers in networks] == [[0, 0], [0, 1], [0, 0], [3, 1]]


def test_infer_shape_mismatch():
    with pytest.raises(DimensionError):
        infer((layer([[256, 0]], [0]),), frame(1, 2, 3), ENGINE)


def test_infer_bit_identical_across_calls():
    ws = gen_weights(21, [6, 5, 3])
    x = gen_frame(21, 0, (6,))
    (o1, c1, r1), (o2, c2, r2) = infer(ws, x, ENGINE), infer(ws, x, ENGINE)
    assert np.array_equal(o1, o2) and c1 == c2 and np.array_equal(r1, r2)


def test_cycle_accounting_and_trace_layout():
    engine = EngineConfig(cycles_per_mac=2, cycles_per_load=3, cycles_per_store=5,
                          pipeline_startup_cycles=7)
    ws = (layer([[256, 0]], [0]),)
    macs, loads, stores = layer_costs(ws[0][0])
    assert (macs, loads, stores) == (2, 2 + 2 + 1, 1)
    x = frame(10, 20)
    out, cycles, digests = infer(ws, x, engine)
    assert cycles == 7 + macs * 2 + loads * 3 + stores * 5
    # fetch reads the parameters; the last execute writes the output
    _, ref_cycles, events = _infer(oracle_network(ws), oracle_tensor(x[0]), engine)
    assert ref_cycles == cycles
    assert [event.kind for event in events] == ["fetch", "load", "execute", "store"]
    assert digests.tolist() == [tensor_digest(out[0])] == [events[-2].payload_digest]


def test_digest_is_the_last_execute_payload():
    ws = gen_weights(4, [3, 4, 2])
    x = gen_frame(4, 0, (3,))
    out, _, digests = infer(ws, x, ENGINE)
    _, _, events = _infer(oracle_network(ws), oracle_tensor(x[0]), ENGINE)
    assert len(ws) == 2 and len(events) == 8
    assert digests.tolist() == [tensor_digest(out[0])] == [events[6].payload_digest]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_infer_matches_bigint_reference(data):
    in_w = data.draw(st.integers(1, 5))
    hidden = data.draw(st.integers(1, 5))
    out_w = data.draw(st.integers(1, 4))
    elems = st.integers(-32768, 32767)
    ws = []
    for a, b in ((in_w, hidden), (hidden, out_w)):
        w = data.draw(st.lists(elems, min_size=a * b, max_size=a * b))
        bias = data.draw(st.lists(elems, min_size=b, max_size=b))
        ws.append((np.array(w, dtype=np.int16).reshape(b, a), np.array(bias, dtype=np.int16)))
    x = np.array([data.draw(st.lists(elems, min_size=in_w, max_size=in_w))], dtype=np.int16)
    out, _, _ = infer(tuple(ws), x, ENGINE)
    assert out[0].tolist() == infer_reference(oracle_network(ws), oracle_tensor(x[0]))


def test_block_infer_equals_reference_on_saturating_and_relu_cases():
    # Rails in the weights, bias and inputs: sums beyond 16 bits saturate
    # both ways, and the ReLU layer zeroes its negative results.
    elems = [32767, -32768, 256, -256, 3, -3, 0, 128]
    w0 = [[elems[(i * 3 + j) % 8] for j in range(4)] for i in range(5)]
    w1 = [[elems[(i + 5 * j) % 8] for j in range(5)] for i in range(3)]
    ws = (layer(w0, [32767, -32768, 0, 5, -5]), layer(w1, [-32768, 32767, 1]))
    frames = np.array([[elems[(f + k) % 8] for k in range(4)] for f in range(8)]
                      + [[32767] * 4, [-32768] * 4], dtype=np.int16).reshape(10, 2, 2)
    outs, cycles, digests = infer(ws, frames, ENGINE)
    assert outs.dtype == np.int16 and outs.shape == (10, 3)
    relu = (ws[0], identity(5))
    hidden, _, _ = infer(relu, frames, ENGINE)
    fetches = set()
    for f in range(10):
        x = oracle_tensor(frames[f])
        assert outs[f].tolist() == infer_reference(oracle_network(ws), x)
        assert hidden[f].tolist() == infer_reference(oracle_network(relu), x)
        _, one_cycles, one_digests = infer(ws, frames[f:f + 1], ENGINE)
        assert (one_cycles, one_digests.tolist()) == (cycles, [digests[f]])
        # the frozen event-by-event trace: each layer's fetch, and the last
        # layer's execute
        _, ref_cycles, events = _infer(oracle_network(ws), x, ENGINE)
        assert ref_cycles == cycles
        fetches.add((events[0].payload_digest, events[4].payload_digest))
        assert digests[f] == tensor_digest(outs[f]) == events[6].payload_digest
    assert len(fetches) == 1  # the parameters alone, whatever the frame
    assert {32767, -32768} <= set(outs.ravel().tolist())
    assert {0, 32767} <= set(hidden.ravel().tolist())


def test_frame_and_weight_synthesis_match_the_scalar_draws():
    frames = gen_frames(9, range(3, 7), (2, 3))
    assert frames.dtype == np.int16 and frames.shape == (4, 2, 3)
    for k, f in enumerate(range(3, 7)):
        assert frames[k].ravel().tolist() == list(_gen_frame(9, f, (2, 3)).data)
    seed = 2**64 - 5  # the stream's counter wraps past 2**64
    for (w, b), ref in zip(gen_weights(seed, [4, 3, 2]), _gen_weights(seed, [4, 3, 2]).layers):
        assert w.shape == ref.weights.shape and w.ravel().tolist() == list(ref.weights.data)
        assert b.tolist() == list(ref.bias.data)
