"""The runner against the frozen scalar reference runner (`oracles.run_reference`).

Every generated config must give the reference runner's report.json bytes
and, expanded to schema 3 (`helpers.expand`), its trace.jsonl bytes. The
run must keep four invariants: every delivered
output is one sample, injected = detected + masked + corrupted, records are
strictly ordered by (t_ns, seq), and the trace and the report agree
(`helpers.check_trace_against_report`).
"""

import hashlib
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim import experiment, trace
from lockstepsim.config import config_from_dict
from lockstepsim.experiment import REPORT_FILENAME, TRACE_FILENAME, run_to_directory
from helpers import check_trace_against_report, expand
from oracles import run_reference
from test_golden import CASES, CONFIG_DIR, EXPANDED_PINS, PINS, SLOW_CASES

# mostly healthy, so that most rounds reach the vote
HEALTH = ("healthy",) * 5 + ("failed", "switched_off")


def _jitter(draw):
    return {
        "base_overhead_ns": draw(st.integers(0, 3_000)),
        "spike_prob": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "spike_scale_ns": draw(st.sampled_from([1, 2, 5_000])),
        "mode2_offset_ns": draw(st.sampled_from([0, 700])),
        "mode2_prob": draw(st.sampled_from([0.0, 0.5])),
    }


def _trigger(draw, frames):
    kind = draw(st.sampled_from(["always", "on_frame", "with_probability"]))
    if kind == "on_frame":
        return {"type": kind, "frame_id": draw(st.sampled_from([0, frames - 1]))}
    if kind == "with_probability":
        return {"type": kind, "p": draw(st.sampled_from([0.0, 0.4, 1.0]))}
    return {"type": kind}


def _fault_kind(draw, arch):
    kind = draw(st.sampled_from(
        ["weight_bit_flip", "output_bit_flip", "extra_delay", "drop_output", "stuck_output"]))
    if kind == "weight_bit_flip":
        layer = draw(st.integers(0, len(arch) - 2))
        return {"type": kind, "layer": layer,
                "element_index": draw(st.integers(0, arch[layer] * arch[layer + 1] - 1)),
                "bit": draw(st.integers(0, 15))}
    if kind == "output_bit_flip":
        return {"type": kind, "element_index": draw(st.integers(0, arch[-1] - 1)),
                "bit": draw(st.integers(0, 15))}
    if kind == "extra_delay":
        return {"type": kind, "ns": draw(st.sampled_from([1, 40, 50_000]))}
    return {"type": kind}


@st.composite
def configs(draw):
    """A small valid config: 1-4 replicas in any health state, tight (with
    or without bus compare) or loose coupling (PTP with asymmetry, drifting
    per-replica clocks and offsets), any MooN policy, both comparators,
    debounce 1-4 and 0-4 faults of any kind and trigger."""
    n = draw(st.integers(1, 4))
    in_shape = draw(st.sampled_from([[3], [4], [2, 3], [2, 2]]))
    arch = [math.prod(in_shape)] + draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    frames = draw(st.integers(1, 5))
    tight = draw(st.booleans())
    topology = {
        "replicas": n,
        "voter": {
            "policy": f"{draw(st.integers(1, n))}oo{n}",
            "comparator": draw(st.sampled_from(
                [{"kind": "exact"}, {"kind": "tolerance", "eps": 0.0},
                 {"kind": "tolerance", "eps": 0.05}])),
            "debounce_threshold": draw(st.integers(1, 4)),
        },
        "engine": {"cycles_per_mac": draw(st.integers(1, 3)),
                   "pipeline_startup_cycles": draw(st.sampled_from([0, 64]))},
        "health": [draw(st.sampled_from(HEALTH)) for _ in range(n)],
    }
    # a quiet topology has no jitter at all, so tight rounds complete
    if not draw(st.booleans()):
        topology["host_jitter"] = [_jitter(draw) for _ in range(n)]
        if not tight:
            topology["feed_jitter"] = _jitter(draw)
    if tight:
        topology["coupling"] = {"mode": "tight", "skew_tolerance_cycles": draw(st.integers(0, 3))}
        topology["clock"] = {"freq_hz": draw(st.sampled_from([210_000_000, 1_000_000_000]))}
        topology["bus_trace_compare"] = draw(st.booleans())
    else:
        topology["coupling"] = {"mode": "loose",
                                "rendezvous_window_ns": draw(st.sampled_from([10_000_000, 2_000, 1]))}
        topology["clocks"] = [
            {"freq_hz": draw(st.sampled_from([998_000_000, 1_000_000_000])),
             "drift_ppm": draw(st.integers(-50, 50))}
            for _ in range(n)
        ]
        topology["clock_offsets_ns"] = [draw(st.integers(-5_000, 5_000)) for _ in range(n)]
        if draw(st.booleans()):
            topology["ptp"] = {"enabled": True, "link_delay_ns": 800,
                               "asymmetry_ns": draw(st.integers(-800, 300))}
    faults = [
        {"replica_id": draw(st.integers(0, n - 1)), "kind": _fault_kind(draw, arch),
         "trigger": _trigger(draw, frames)}
        for _ in range(draw(st.integers(0, 4)))
    ]
    return {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "topology": topology,
        "workload": {"frame_count": frames, "repetitions_per_frame": draw(st.integers(1, 3)),
                     "input_shape": in_shape, "arch": arch},
        "faults": faults,
    }


def check_invariants(cfg, lines, report):
    """`lines` are the runner's schema-5 trace lines."""
    rounds = cfg.workload.frame_count * cfg.workload.repetitions_per_frame

    # sample conservation: a replica has at most one sample per round
    assert sum(report["verdict_counts"].values()) == rounds
    assert all(len(row["samples"]) <= rounds for row in report["replicas"])

    # fault accounting
    f = report["faults"]
    assert f["injected"] == f["detected"] + f["masked_pass"] + f["corrupted_pass"]
    assert report["bus"]["divergences"] <= report["bus"]["comparisons"] <= rounds

    # strict (t_ns, seq) order, and the trace and the report agree
    check_trace_against_report(lines, report)


def report_text(report):
    """report.json's text of a reference report."""
    return json.dumps(report, indent=2) + "\n"


def assert_matches_reference(raw, out_dir):
    cfg = config_from_dict(raw, env={})
    run_to_directory(cfg, out_dir)
    trace_text, report = run_reference(cfg)
    lines = (out_dir / TRACE_FILENAME).read_text().splitlines()
    assert "".join(expand(lines)) == trace_text
    assert (out_dir / REPORT_FILENAME).read_text() == report_text(report)
    check_invariants(cfg, lines, report)


@settings(settings.get_profile("oracle-fuzz"))
@given(configs())
def test_generated_configs_match_the_reference(tmp_path_factory, raw):
    assert_matches_reference(raw, tmp_path_factory.mktemp("run"))


@pytest.mark.parametrize("chunk", [1, 3])
@settings(settings.get_profile("oracle-fuzz"))
@given(raw=configs())
def test_tiny_chunks_and_blocks_match_the_reference(tmp_path_factory, chunk, raw):
    # Chunks of 1 or 3 rounds, blocks of 2 frames (a budget of 2 frames'
    # values) and rounds written 2 at a time: their edges fall mid-frame,
    # right after a slow round, inside a jitter stream's 3-draw samples and
    # after SafeOff. With chunks of 1, every round sits on a chunk edge, so
    # the safety switch, a stuck output's last value and seq all carry
    # across chunks.
    arch = config_from_dict(raw, env={}).workload.arch
    with mock.patch.object(experiment, "ROUND_CHUNK", chunk), \
            mock.patch.object(experiment, "BLOCK_VALUES", 2 * (max(arch) + 1)), \
            mock.patch.object(trace, "WRITE_ROUNDS", 2):
        assert_matches_reference(raw, tmp_path_factory.mktemp("run"))


def _fault_campaign(frames):
    raw = json.loads((CONFIG_DIR / "fault-campaign.json").read_text())
    raw["workload"]["frame_count"] = frames
    return raw


@pytest.mark.parametrize("chunk", sorted({512, experiment.ROUND_CHUNK}))
def test_fault_campaign_cut_matches_the_reference(tmp_path, chunk):
    # 20 frames: 2000 rounds, each with the delay, some with the flip. In
    # chunks of 512 the chunk edges fall mid-frame; at the shipped size the
    # rounds sit in one chunk, and the 128-round pieces fall mid-chunk.
    with mock.patch.object(experiment, "ROUND_CHUNK", chunk):
        assert_matches_reference(_fault_campaign(20), tmp_path)


@pytest.mark.parametrize("count", [63, 64, 70])
def test_more_weight_flips_than_an_int64_code_holds_match_the_reference(tmp_path, count):
    # `count` weight-bit flips on replica 2, each fired by probability: the
    # flips of each round make one code, in int64 up to 63 flips and in Python
    # ints beyond. Replica 1 flips one bit twice, which cancels.
    def flip(rid, layer, element, bit, p):
        return {"replica_id": rid, "trigger": {"type": "with_probability", "p": p},
                "kind": {"type": "weight_bit_flip", "layer": layer, "element_index": element, "bit": bit}}
    raw = {"seed": 17,
           "topology": {"replicas": 3, "coupling": {"mode": "tight"}, "bus_trace_compare": True,
                        "voter": {"policy": "2oo3", "comparator": {"kind": "exact"}}},
           "workload": {"frame_count": 12, "repetitions_per_frame": 2, "input_shape": [4], "arch": [4, 5, 3]},
           "faults": [flip(2, j % 2, j % 15, j % 16, 0.03) for j in range(count)]
           + [flip(1, 1, 4, 9, 0.5), flip(1, 1, 4, 9, 0.5)]}
    assert_matches_reference(raw, tmp_path)


@pytest.mark.parametrize("name", sorted(set(CASES) - SLOW_CASES - {"two-profiles"}))
def test_reference_reproduces_the_pins(name):
    # the frozen runner writes schema 3: its trace is the pinned expansion
    trace_text, report = run_reference(config_from_dict(CASES[name](), env={}))
    assert hashlib.sha256(trace_text.encode()).hexdigest() == EXPANDED_PINS[name]
    assert hashlib.sha256(report_text(report).encode()).hexdigest() == PINS[name][1]
