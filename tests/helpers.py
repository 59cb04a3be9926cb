"""Small constructors shared across test modules."""

import json

from lockstepsim.config import config_from_dict
from lockstepsim.experiment import ExperimentRunner
from lockstepsim.fixedpoint import FixedPointTensor, tensor_digest
from lockstepsim.replica import ReplicaOutput


def make_output(replica_id, values):
    if isinstance(values, int):
        values = [values]
    tensor = FixedPointTensor((len(values),), tuple(values))
    return ReplicaOutput(replica_id=replica_id, output=tensor, digest=tensor_digest(tensor))


def run_with_records(raw):
    """(config, report, trace records) of one run of the raw config; each
    record is a line the runner wrote, parsed."""
    cfg = config_from_dict(raw)
    lines = []
    report = ExperimentRunner(cfg, lines.append).run()
    return cfg, report, [json.loads(line) for line in lines]


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
