"""Benchmark workloads: one lockstepsim config per (workload, seed).

Every config is generated here from the benchmark seed; the simulator only
ever sees the generated JSON. Sizes are fixed per workload so host cost
does not depend on the seed: the seed moves the simulator's RNG streams and
the bit positions the faults hit, never the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The paper-protocol shape (100 inferences per frame, so 99% of rounds
# repeat a frame) with 200 frames instead of 500: 20k rounds keep one run
# to a few seconds, so a measurement window holds enough runs for a steady
# median on a noisy host.
LOOSE_FRAMES = 200
LOOSE_REPETITIONS = 100

# One round per frame, so every round infers a fresh frame. 1500 frames of
# a [32, 32, 16] net take about as long as loose-traced.
TIGHT_FRAMES = 1500
TIGHT_ARCH = (32, 32, 16)
TIGHT_DEBOUNCE = 3

# (replica, fault kind, trigger probability); replica 2 takes most faults
# so 2oo3 masks the value faults and timing faults reach the voter.
TIGHT_FAULTS = (
    (2, "weight_bit_flip", 0.05),
    (2, "output_bit_flip", 0.04),
    (2, "stuck_output", 0.02),
    (2, "drop_output", 0.02),
    (2, "extra_delay", 0.03),
    (1, "output_bit_flip", 0.01),
)


@dataclass(frozen=True)
class Workload:
    name: str
    api: str            # "memory": run_experiment, no trace; "directory": run_to_directory
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "loose-untraced", "memory",
            "paper-protocol duplex loose 1oo2, no trace writer: 99% of rounds reuse a "
            "cached inference, so host time is per-round orchestration",
        ),
        Workload(
            "loose-traced", "directory",
            "same config written by run_to_directory: differs from loose-untraced only "
            "by trace encoding and file writes",
        ),
        Workload(
            "tight-2oo3-faults", "directory",
            "3 tight replicas, bus compare, 2oo3, every fault kind, a fresh frame each "
            "round: inference, digests and faults dominate",
        ),
    )
}


def _sim_seed(workload: str, seed: int) -> int:
    # The two loose workloads share one generator so they differ only by the trace.
    family = "tight" if workload == "tight-2oo3-faults" else "loose"
    return random.Random(f"{family}:{seed}").randrange(1 << 32)


def make_config(workload: str, seed: int) -> dict:
    """The raw lockstepsim config for `workload` under benchmark `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sim_seed = _sim_seed(workload, seed)
    if workload != "tight-2oo3-faults":
        return {
            "seed": sim_seed,
            "topology": "gpu-duplex-loose",
            "workload": {
                "frame_count": LOOSE_FRAMES,
                "repetitions_per_frame": LOOSE_REPETITIONS,
                "input_shape": [16],
                "arch": [16, 16, 8],
            },
        }
    pick = random.Random(f"tight-faults:{seed}")
    arch = list(TIGHT_ARCH)
    faults = []
    for rid, kind, p in TIGHT_FAULTS:
        if kind == "weight_bit_flip":
            k = {"type": kind, "layer": 0, "element_index": pick.randrange(arch[0] * arch[1]),
                 "bit": pick.randrange(8, 16)}
        elif kind == "output_bit_flip":
            k = {"type": kind, "element_index": pick.randrange(arch[-1]), "bit": pick.randrange(16)}
        elif kind == "extra_delay":
            k = {"type": kind, "ns": 50_000}
        else:
            k = {"type": kind}
        faults.append({"replica_id": rid, "kind": k,
                       "trigger": {"type": "with_probability", "p": p}})
    return {
        "seed": sim_seed,
        "topology": {
            "replicas": 3,
            "coupling": {"mode": "tight", "skew_tolerance_cycles": 2},
            "voter": {"policy": "2oo3", "comparator": {"kind": "exact"},
                      "debounce_threshold": TIGHT_DEBOUNCE},
            "clock": {"freq_hz": 210_000_000, "drift_ppm": 0},
            "shared_clock": True,
            "bus_trace_compare": True,
        },
        "workload": {
            "frame_count": TIGHT_FRAMES,
            "repetitions_per_frame": 1,
            "input_shape": [arch[0]],
            "arch": arch,
        },
        "faults": faults,
    }


def workload_properties(config: dict) -> dict:
    """Input properties the simulator's cost depends on."""
    wl = config["workload"]
    rounds = wl["frame_count"] * wl["repetitions_per_frame"]
    return {
        "rounds": rounds,
        "frame_repeat_share": 1 - wl["frame_count"] / rounds,
        "arch": list(wl["arch"]),
        "fault_specs": len(config.get("faults", [])),
    }
