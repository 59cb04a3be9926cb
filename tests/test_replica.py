import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.errors import ConfigError, DimensionError
from lockstepsim.fixedpoint import FixedPointTensor, combine_digests, tensor_digest
from lockstepsim.replica import (
    LINEAR,
    RELU,
    WEIGHT_CLAMP,
    EngineConfig,
    LayerSpec,
    WeightSet,
    gen_frame,
    gen_frames,
    gen_weights,
    infer,
    layer_costs,
)
from oracles import _gen_frame, _gen_weights, _infer, infer_reference

ENGINE = EngineConfig()


def single_layer(weight_rows, bias, activation=LINEAR):
    out_w = len(weight_rows)
    in_w = len(weight_rows[0])
    flat = tuple(v for row in weight_rows for v in row)
    return WeightSet(
        (
            LayerSpec(
                weights=FixedPointTensor((out_w, in_w), flat),
                bias=FixedPointTensor((out_w,), tuple(bias)),
                activation=activation,
            ),
        )
    )


def test_gen_weights_deterministic():
    a = gen_weights(11, [3, 5, 2])
    b = gen_weights(11, [3, 5, 2])
    assert a == b
    assert a.params_digests == b.params_digests


def test_gen_weights_seeds_differ():
    assert gen_weights(1, [2, 2]).params_digests != gen_weights(2, [2, 2]).params_digests


def test_gen_weights_validates_arch():
    with pytest.raises(ConfigError):
        gen_weights(1, [2])
    with pytest.raises(ConfigError):
        gen_weights(1, [])
    with pytest.raises(ConfigError):
        gen_weights(1, [2, 0])
    with pytest.raises(ConfigError):
        gen_weights(1, [2, 2000])


def test_gen_weights_range_and_activations():
    ws = gen_weights(3, [4, 6, 5, 2])
    for layer in ws.layers:
        for v in layer.weights.data.tolist() + layer.bias.data.tolist():
            assert -WEIGHT_CLAMP <= v <= WEIGHT_CLAMP
    assert [l.activation for l in ws.layers] == [RELU, RELU, LINEAR]


def test_gen_frame_deterministic_and_bounded():
    a = gen_frame(5, 3, (4,))
    b = gen_frame(5, 3, (4,))
    assert a == b
    assert gen_frame(5, 4, (4,)) != a
    assert all(-256 <= v <= 256 for v in a.data)


def test_infer_identity():
    ws = single_layer([[256, 0], [0, 256]], [0, 0])
    out, _, _ = infer(ws, FixedPointTensor((2,), (256, -128)), ENGINE)
    assert out.data.tolist() == [256, -128]


def test_infer_half_sum_relu():
    # 0.5*1.0 + 0.5*1.0 == 1.0 exactly after the rounding shift
    ws = single_layer([[128, 128]], [0], activation=RELU)
    out, _, _ = infer(ws, FixedPointTensor((2,), (256, 256)), ENGINE)
    assert out.data.tolist() == [256,]


def test_round_half_to_even():
    # acc = 128 -> 0.5 rounds to even 0; acc = 384 -> 1.5 rounds to even 2
    ws = single_layer([[1]], [0])
    out, _, _ = infer(ws, FixedPointTensor((1,), (128,)), ENGINE)
    assert out.data.tolist() == [0,]
    ws = single_layer([[3]], [0])
    out, _, _ = infer(ws, FixedPointTensor((1,), (128,)), ENGINE)
    assert out.data.tolist() == [2,]
    # negative side: acc = -128 -> -0.5 rounds to 0; acc = -384 -> -1.5 to -2
    ws = single_layer([[-1]], [0])
    out, _, _ = infer(ws, FixedPointTensor((1,), (128,)), ENGINE)
    assert out.data.tolist() == [0,]
    ws = single_layer([[-3]], [0])
    out, _, _ = infer(ws, FixedPointTensor((1,), (128,)), ENGINE)
    assert out.data.tolist() == [-2,]


def test_relu_clamps_negatives():
    ws = single_layer([[-256]], [0], activation=RELU)
    out, _, _ = infer(ws, FixedPointTensor((1,), (256,)), ENGINE)
    assert out.data.tolist() == [0,]


def test_saturation_no_wrap():
    ws = single_layer([[32767, 32767]], [32767])
    out, _, _ = infer(ws, FixedPointTensor((2,), (32767, 32767)), ENGINE)
    assert out.data.tolist() == [32767,]
    ws = single_layer([[-32768, -32768]], [-32768])
    out, _, _ = infer(ws, FixedPointTensor((2,), (32767, 32767)), ENGINE)
    assert out.data.tolist() == [-32768,]


def test_accumulator_bound_for_supported_sizes():
    # per-MAC product bound 2**30, bias term bound 2**23, max width 1024
    assert 1024 * 2**30 + 2**23 < 2**63


def test_infer_shape_mismatch():
    ws = single_layer([[256, 0]], [0])
    with pytest.raises(DimensionError):
        infer(ws, FixedPointTensor((3,), (1, 2, 3)), ENGINE)


def test_infer_bit_identical_across_calls():
    ws = gen_weights(21, [6, 5, 3])
    frame = gen_frame(21, 0, (6,))
    r1 = infer(ws, frame, ENGINE)
    r2 = infer(ws, frame, ENGINE)
    assert r1 == r2


def test_cycle_accounting_and_trace_layout():
    engine = EngineConfig(cycles_per_mac=2, cycles_per_load=3, cycles_per_store=5,
                          pipeline_startup_cycles=7)
    ws = single_layer([[256, 0]], [0])
    macs, loads, stores = layer_costs(ws.layers[0])
    assert (macs, loads, stores) == (2, 2 + 2 + 1, 1)
    x = FixedPointTensor((2,), (10, 20))
    out, cycles, (params, row) = infer(ws, x, engine)
    assert cycles == 7 + macs * 2 + loads * 3 + stores * 5
    # fetch reads the parameters, load the input, execute and store the output
    assert params == (combine_digests(tensor_digest(ws.layers[0].weights), tensor_digest(ws.layers[0].bias)),)
    assert row == (tensor_digest(x), tensor_digest(out))


def test_trace_row_has_every_layer_output():
    ws = gen_weights(4, [3, 4, 2])
    x = gen_frame(4, 0, (3,))
    out, _, (params, row) = infer(ws, x, ENGINE)
    hidden, _, _ = infer(WeightSet(ws.layers[:1]), x, ENGINE)
    assert params == ws.params_digests and len(params) == 2
    assert row == (tensor_digest(x), tensor_digest(hidden), tensor_digest(out))


def test_weight_set_validation():
    good = gen_weights(1, [2, 3, 2])
    with pytest.raises(DimensionError):
        WeightSet((good.layers[1], good.layers[1]))  # 2-wide feeding 3-wide
    with pytest.raises(DimensionError):
        WeightSet(())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_infer_matches_bigint_reference(data):
    in_w = data.draw(st.integers(1, 5))
    hidden = data.draw(st.integers(1, 5))
    out_w = data.draw(st.integers(1, 4))
    elems = st.integers(-32768, 32767)
    layers = []
    for (a, b, act) in ((in_w, hidden, RELU), (hidden, out_w, LINEAR)):
        w = data.draw(st.lists(elems, min_size=a * b, max_size=a * b))
        bias = data.draw(st.lists(elems, min_size=b, max_size=b))
        layers.append(
            LayerSpec(
                weights=FixedPointTensor((b, a), tuple(w)),
                bias=FixedPointTensor((b,), tuple(bias)),
                activation=act,
            )
        )
    ws = WeightSet(tuple(layers))
    x = data.draw(st.lists(elems, min_size=in_w, max_size=in_w))
    tensor = FixedPointTensor((in_w,), tuple(x))
    out, _, _ = infer(ws, tensor, ENGINE)
    assert list(out.data) == infer_reference(ws, tensor)


def test_block_infer_equals_reference_on_saturating_and_relu_cases():
    # Rails in the weights, bias and inputs: sums beyond 16 bits saturate
    # both ways, and the ReLU layer zeroes its negative results.
    elems = [32767, -32768, 256, -256, 3, -3, 0, 128]
    w0 = [[elems[(i * 3 + j) % 8] for j in range(4)] for i in range(5)]
    w1 = [[elems[(i + 5 * j) % 8] for j in range(5)] for i in range(3)]
    ws = WeightSet((
        single_layer(w0, [32767, -32768, 0, 5, -5], activation=RELU).layers[0],
        single_layer(w1, [-32768, 32767, 1]).layers[0],
    ))
    frames = np.array([[elems[(f + k) % 8] for k in range(4)] for f in range(8)]
                      + [[32767] * 4, [-32768] * 4], dtype=np.int16).reshape(10, 2, 2)
    outs, cycles, rows = infer(ws, frames, ENGINE)
    assert outs.dtype == np.int16 and outs.shape == (10, 3)
    relu = WeightSet(ws.layers[:1])
    hidden, _, _ = infer(relu, frames, ENGINE)
    for f in range(10):
        x = FixedPointTensor((2, 2), frames[f])
        assert outs[f].tolist() == infer_reference(ws, x)
        assert hidden[f].tolist() == infer_reference(relu, x)
        out, one_cycles, (params, row) = infer(ws, x, ENGINE)
        assert (one_cycles, row) == (cycles, tuple(rows[f].tolist()))
        # the frozen event-by-event trace: fetch, load, execute per layer
        _, ref_cycles, events = _infer(ws, x, ENGINE)
        assert ref_cycles == cycles
        assert params == (events[0].payload_digest, events[4].payload_digest)
        assert row == tuple(events[i].payload_digest for i in (1, 2, 6))
    assert {32767, -32768} <= set(outs.ravel().tolist())
    assert {0, 32767} <= set(hidden.ravel().tolist())


def test_frame_and_weight_synthesis_match_the_scalar_draws():
    frames = gen_frames(9, range(3, 7), (2, 3))
    assert frames.dtype == np.int16 and frames.shape == (4, 2, 3)
    for k, f in enumerate(range(3, 7)):
        assert frames[k].ravel().tolist() == list(_gen_frame(9, f, (2, 3)).data)
        assert gen_frame(9, f, (2, 3)) == FixedPointTensor((2, 3), frames[k])
    seed = 2**64 - 5  # the stream's counter wraps past 2**64
    for layer, ref in zip(gen_weights(seed, [4, 3, 2]).layers, _gen_weights(seed, [4, 3, 2]).layers):
        assert layer.weights.data.tolist() == list(ref.weights.data)
        assert layer.bias.data.tolist() == list(ref.bias.data)
