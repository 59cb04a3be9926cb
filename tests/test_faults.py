import numpy as np
import pytest

from helpers import oracle_network, oracle_tensor, rounds_of, run_with_records, zero_jitter_duplex
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
from lockstepsim.replica import EngineConfig, gen_frame, gen_weights, infer
from oracles import Rng, _flip_bit, _flip_weight_bits, _Tensor, infer_reference


def test_output_bit_flip_xor_semantics():
    out = np.array([[256, -128], [256, -128]], dtype=np.int16)
    flip_output_bits(out, [(0, 0)], np.array([[True], [False]]))
    assert out.tolist() == [[257, -128], [256, -128]]


def test_output_flips_match_the_scalar_flip():
    # the sign bit, a bit flipped twice (which cancels) and two elements
    flips = [(1, 15), (0, 3), (1, 15), (2, 0)]
    want = _Tensor((3,), (-5, 300, 32767))
    for element_index, bit in flips:
        want = _flip_bit(want, element_index, bit)
    out = np.array([[-5, 300, 32767]], dtype=np.int16)
    flip_output_bits(out, flips, np.ones((1, 4), dtype=bool))
    assert out[0].tolist() == list(want.data)


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
    outputs = [c for _, cs in rounds_of(records) for c in cs]
    digests = [[c["digest"] for c in outputs if c["replica_id"] == rid] for rid in (0, 1)]
    assert digests[0][2] != digests[0][0]
    assert digests[1] == [digests[1][0]] * 3 and digests[1][0] != digests[0][0]
    assert report.verdict_counts["mismatch"] == 3


FRAMES = np.arange(1000)


def test_probability_zero_never_fires():
    assert not trigger_fires(WithProbability(0.0), FRAMES, 3, 0).any()


def test_probability_one_always_fires():
    assert trigger_fires(WithProbability(1.0), FRAMES, 3, 0).all()


def test_on_frame_trigger():
    assert np.flatnonzero(trigger_fires(OnFrame(7), FRAMES, 0, 0)).tolist() == [7]
    assert trigger_fires(Always(), FRAMES, 0, 0).all()


def test_untriggered_fault_not_applied():
    assert not trigger_fires(OnFrame(3), np.array([2]), 0, 0).any()


def test_probabilistic_trigger_is_the_scalar_stream():
    # round i of a chunk that starts at the run's round `start` reads draw start+i+1
    rng = Rng(99)
    scalar = [rng.uniform() < 0.25 for _ in range(300)]
    assert trigger_fires(WithProbability(0.25), np.arange(100), 99, 200).tolist() == scalar[200:]


def test_probabilistic_trigger_rate_roughly_matches():
    fired = trigger_fires(WithProbability(0.25), np.arange(20000), 99, 0)
    assert abs(fired.mean() - 0.25) < 0.02


def test_weight_flip_changes_one_bit_and_shares_the_rest():
    ws = gen_weights(5, [6, 5, 4])
    element, bit = 14, 13  # changes output 2 from 32767 to 25018
    flipped = flip_weight_bits(ws, [(1, element, bit)])
    old, new = ws[1][0].view(np.uint16).ravel(), flipped[1][0].view(np.uint16).ravel()
    assert np.flatnonzero(old != new).tolist() == [element] and old[element] ^ new[element] == 1 << bit
    # the bias and the unflipped layer are the original arrays
    assert flipped[1][1] is ws[1][1]
    assert flipped[0][0] is ws[0][0] and flipped[0][1] is ws[0][1]
    frame = gen_frame(5, 0, (6,))
    engine = EngineConfig()
    out = infer(flipped, frame, engine)[0]
    want = infer_reference(_flip_weight_bits(oracle_network(ws), [(1, element, bit)]), oracle_tensor(frame[0]))
    assert out[0].tolist() == want
    assert out[0, 2] == 25018 and infer(ws, frame, engine)[0][0, 2] == 32767


def test_weight_flips_of_one_layer_compose():
    # two bits of one element and one of another; a bit flipped twice cancels
    ws = gen_weights(5, [6, 5, 4])
    flipped = flip_weight_bits(ws, [(1, 3, 0), (1, 3, 15), (1, 9, 2), (1, 9, 2)])
    want = _flip_weight_bits(oracle_network(ws), [(1, 3, 0), (1, 3, 15)]).layers[1].weights
    assert flipped[1][0].ravel().tolist() == list(want.data)
    assert flip_weight_bits(ws, [(0, 7, 4), (0, 7, 4)])[0][0].tolist() == ws[0][0].tolist()


def test_every_weight_array_refuses_writes():
    # flip_weight_bits shares the arrays it does not flip between every flip
    # set, so one write in place would change all of them
    ws = gen_weights(5, [6, 5, 4])
    flipped = flip_weight_bits(ws, [(1, 14, 13), (1, 3, 0), (0, 2, 15)])
    for array in [a for pair in ws + flipped for a in pair]:
        with pytest.raises(ValueError):
            array[0] = 1
        with pytest.raises(ValueError):
            array.reshape(-1)[-1] = 1
