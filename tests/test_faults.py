import pytest

from lockstepsim.faults import (
    Always,
    DropOutput,
    ExtraDelay,
    FaultEffects,
    FaultSpec,
    OnFrame,
    OutputBitFlip,
    StuckOutput,
    WeightBitFlip,
    WithProbability,
    apply_fault,
    flip_output_bits,
    flip_weight_bits,
    trigger_fires,
)
from lockstepsim.fixedpoint import FixedPointTensor, flip_bit
from lockstepsim.replica import EngineConfig, LayerSpec, WeightSet, gen_frame, gen_weights, infer
from lockstepsim.rng import Rng


def test_output_bit_flip_xor_semantics():
    effects = FaultEffects()
    spec = FaultSpec(OutputBitFlip(element_index=0, bit=0))
    assert apply_fault(spec, effects, frame_id=0, rng=Rng(0)) is True
    out = flip_output_bits(FixedPointTensor((2,), (256, -128)), effects.output_flips)
    assert out.data.tolist() == [257, -128]


def test_extra_delay_accumulates():
    effects = FaultEffects()
    apply_fault(FaultSpec(ExtraDelay(500)), effects, 0, Rng(0))
    apply_fault(FaultSpec(ExtraDelay(250)), effects, 0, Rng(0))
    assert effects.extra_delay_ns == 750


def test_drop_and_stuck_flags():
    effects = FaultEffects()
    apply_fault(FaultSpec(DropOutput()), effects, 0, Rng(0))
    apply_fault(FaultSpec(StuckOutput()), effects, 0, Rng(0))
    assert effects.drop and effects.stuck


def test_probability_zero_never_fires():
    trig = WithProbability(0.0)
    rng = Rng(3)
    assert not any(trigger_fires(trig, f, rng) for f in range(1000))


def test_probability_one_always_fires():
    trig = WithProbability(1.0)
    rng = Rng(3)
    assert all(trigger_fires(trig, f, rng) for f in range(1000))


def test_on_frame_trigger():
    trig = OnFrame(7)
    rng = Rng(0)
    assert trigger_fires(trig, 7, rng)
    assert not trigger_fires(trig, 8, rng)


def test_untriggered_fault_not_applied():
    effects = FaultEffects()
    spec = FaultSpec(OutputBitFlip(0, 0), OnFrame(3))
    assert apply_fault(spec, effects, frame_id=2, rng=Rng(0)) is False
    assert effects.output_flips == []


def test_weight_flip_changes_one_bit():
    ws = gen_weights(5, [3, 2])
    flipped = flip_weight_bits(ws, [(0, 1, 4)])
    assert flipped.params_digests[0] != ws.params_digests[0]
    orig = ws.layers[0].weights.data.tolist()
    new = flipped.layers[0].weights.data.tolist()
    diffs = [(i, a ^ b) for i, (a, b) in enumerate(zip(orig, new)) if a != b]
    assert len(diffs) == 1
    assert diffs[0][0] == 1
    assert (diffs[0][1] & 0xFFFF) == 1 << 4
    # bias untouched
    assert flipped.layers[0].bias == ws.layers[0].bias


def test_probabilistic_trigger_rate_roughly_matches():
    trig = WithProbability(0.25)
    rng = Rng(99)
    fired = sum(trigger_fires(trig, f, rng) for f in range(20000))
    assert abs(fired / 20000 - 0.25) < 0.02


def test_weight_flip_rebuilds_only_the_flipped_layer():
    ws = gen_weights(5, [6, 5, 4])
    engine = EngineConfig()
    frame = gen_frame(5, 0, (6,))
    before = infer(ws, frame, engine)  # fills every cache of the original
    element, bit = 14, 13  # changes output 2 from 32767 to 25018

    flipped = flip_weight_bits(ws, [(1, element, bit)])
    assert flipped.layers[0] is ws.layers[0]

    old = ws.layers[1]
    scratch = WeightSet((
        LayerSpec(
            FixedPointTensor(ws.layers[0].weights.shape, ws.layers[0].weights.data),
            FixedPointTensor(ws.layers[0].bias.shape, ws.layers[0].bias.data),
            ws.layers[0].activation,
        ),
        LayerSpec(
            FixedPointTensor(old.weights.shape, flip_bit(old.weights, element, bit).data),
            FixedPointTensor(old.bias.shape, old.bias.data),
            old.activation,
        ),
    ))
    result = infer(flipped, frame, engine)
    assert result == infer(scratch, frame, engine)
    assert result[0] != before[0]
    assert infer(ws, frame, engine) == before
