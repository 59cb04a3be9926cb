"""Small constructors shared across test modules."""

import json

from lockstepsim.config import config_from_dict
from lockstepsim.experiment import ExperimentRunner
from oracles import _Layer, _Tensor, _Weights


def run_with_text(raw):
    """(config, report, trace text) of one run of the raw config."""
    cfg = config_from_dict(raw)
    chunks = []
    report = ExperimentRunner(cfg, chunks.append).run()
    return cfg, report, "".join(chunks)


def run_with_records(raw):
    """(config, report, trace records) of one run of the raw config; each
    record is a line the runner wrote, parsed."""
    cfg, report, text = run_with_text(raw)
    return cfg, report, [json.loads(line) for line in text.splitlines()]


def zero_jitter_duplex(seed=1, frames=5, reps=1, window_ns=10_000_000, policy="1oo2",
                       replicas=2, faults=(), debounce=1, extra_topology=None,
                       arch=(4, 4, 3), input_shape=(4,)):
    """Config dict for a quiet (zero-jitter) loose topology."""
    topology = {
        "replicas": replicas,
        "coupling": {"mode": "loose", "rendezvous_window_ns": window_ns},
        "voter": {
            "policy": policy,
            "comparator": {"kind": "exact"},
            "debounce_threshold": debounce,
        },
        "clock": {"freq_hz": 1_000_000_000, "drift_ppm": 0},
    }
    if extra_topology:
        topology.update(extra_topology)
    return {
        "seed": seed,
        "topology": topology,
        "workload": {
            "frame_count": frames,
            "repetitions_per_frame": reps,
            "input_shape": list(input_shape),
            "arch": list(arch),
        },
        "faults": list(faults),
    }


def oracle_tensor(array):
    """An int16 array as the oracle's tensor: its shape and its values in
    row-major order."""
    return _Tensor(array.shape, tuple(array.ravel().tolist()))


def oracle_network(layers):
    """The network `layers`, (weights, bias) array pairs, as the oracle's
    weights: every layer but the last applies ReLU."""
    return _Weights(tuple(
        _Layer(oracle_tensor(w), oracle_tensor(b), "relu" if i < len(layers) - 1 else "none", *w.shape)
        for i, (w, b) in enumerate(layers)))
