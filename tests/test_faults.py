import numpy as np

from helpers import run_with_records, zero_jitter_duplex
from lockstepsim.config import config_from_dict
from lockstepsim.experiment import run_experiment
from lockstepsim.faults import (
    Always,
    OnFrame,
    WithProbability,
    flip_output_bits,
    flip_weight_bits,
    trigger_fires,
)
from lockstepsim.fixedpoint import FixedPointTensor, flip_bit
from lockstepsim.replica import EngineConfig, LayerSpec, WeightSet, gen_frame, gen_weights, infer
from oracles import Rng


def test_output_bit_flip_xor_semantics():
    out = np.array([[256, -128], [256, -128]], dtype=np.int16)
    flip_output_bits(out, [(0, 0)], np.array([[True], [False]]))
    assert out.tolist() == [[257, -128], [256, -128]]


def test_output_flips_match_flip_bit():
    # the sign bit, a bit flipped twice (which cancels) and two elements
    flips = [(1, 15), (0, 3), (1, 15), (2, 0)]
    tensor = FixedPointTensor((3,), (-5, 300, 32767))
    want = tensor
    for element_index, bit in flips:
        want = flip_bit(want, element_index, bit)
    out = tensor.data.reshape(1, 3).copy()
    flip_output_bits(out, flips, np.ones((1, 4), dtype=bool))
    assert out[0].tolist() == want.data.tolist()


def test_extra_delay_accumulates():
    # two delays of one replica add up in its completion time
    faults = [{"replica_id": 1, "kind": {"type": "extra_delay", "ns": ns}, "trigger": {"type": "always"}}
              for ns in (500, 250)]
    report = run_experiment(config_from_dict(zero_jitter_duplex(frames=2, faults=faults)))
    assert report.skew_ns["min"] == report.skew_ns["max"] == 750


def test_value_faults_act_in_order():
    # Replica 1 has an output flip and a stuck output, both always. In frame
    # 0 it has nothing to repeat, so it emits its flipped output; from then
    # on it repeats that output. Drop and delay act on the emission mask and
    # the times, never on a value.
    faults = [{"replica_id": 1, "kind": kind, "trigger": {"type": "always"}} for kind in (
        {"type": "stuck_output"}, {"type": "output_bit_flip", "element_index": 0, "bit": 12},
        {"type": "extra_delay", "ns": 5})]
    _, report, records = run_with_records(zero_jitter_duplex(frames=3, faults=faults))
    digests = [[r["digest"] for r in records if r["kind"] == "completion" and r["replica_id"] == rid]
               for rid in (0, 1)]
    assert digests[0][2] != digests[0][0]
    assert digests[1] == [digests[1][0]] * 3 and digests[1][0] != digests[0][0]
    assert report.verdict_counts["mismatch"] == 3


FRAMES = np.arange(1000)


def test_probability_zero_never_fires():
    fired, used = trigger_fires(WithProbability(0.0), FRAMES, 3, 0)
    assert not fired.any() and used == 1000


def test_probability_one_always_fires():
    fired, _ = trigger_fires(WithProbability(1.0), FRAMES, 3, 0)
    assert fired.all()


def test_on_frame_trigger():
    fired, used = trigger_fires(OnFrame(7), FRAMES, 0, 0)
    assert np.flatnonzero(fired).tolist() == [7] and used == 0
    assert trigger_fires(Always(), FRAMES, 0, 0)[0].all()


def test_untriggered_fault_not_applied():
    fired, _ = trigger_fires(OnFrame(3), np.array([2]), 0, 0)
    assert not fired.any()


def test_probabilistic_trigger_is_the_scalar_stream():
    # round i of a chunk that starts after `start` draws reads draw start+i+1
    rng = Rng(99)
    scalar = [rng.uniform() < 0.25 for _ in range(300)]
    fired, used = trigger_fires(WithProbability(0.25), np.arange(100), 99, 200)
    assert fired.tolist() == scalar[200:] and used == 100


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
    fired, _ = trigger_fires(WithProbability(0.25), np.arange(20000), 99, 0)
    assert abs(fired.mean() - 0.25) < 0.02


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
