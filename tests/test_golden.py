"""Golden digest pins: SHA-256 of the trace.jsonl and report.json that
run_to_directory writes, per config, and of the trace expanded to schema 3
(`helpers.expand`), which the frozen reference runner writes.

A refactor or optimisation must keep every pin. A pin changes only when an
output format changes on purpose, and that change is recorded in
CHANGES.md. If a pin fails otherwise, the code is wrong, not the pin.

To print both pin tables of the current code (for a deliberate format
change):

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

from helpers import check_trace_against_report, expand
from lockstepsim.config import config_from_dict
from lockstepsim.experiment import (
    REPORT_FILENAME,
    TRACE_FILENAME,
    ExperimentReport,
    run_experiment,
    run_to_directory,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name):
    return json.loads((CONFIG_DIR / name).read_text())


def _tight_2oo3_all_faults():
    # Replica 2 takes the value faults so 2oo3 masks them; replica 1 carries
    # one weight flip so two replicas infer on flipped copies of layer 1
    # while layer 0 stays shared with the healthy replica.
    faults = [
        (2, {"type": "weight_bit_flip", "layer": 0, "element_index": 37, "bit": 13}, {"type": "with_probability", "p": 0.2}),
        (2, {"type": "weight_bit_flip", "layer": 1, "element_index": 300, "bit": 11}, {"type": "on_frame", "frame_id": 5}),
        (1, {"type": "weight_bit_flip", "layer": 1, "element_index": 9, "bit": 14}, {"type": "on_frame", "frame_id": 12}),
        (2, {"type": "output_bit_flip", "element_index": 3, "bit": 9}, {"type": "with_probability", "p": 0.1}),
        (2, {"type": "stuck_output"}, {"type": "on_frame", "frame_id": 40}),
        (2, {"type": "drop_output"}, {"type": "with_probability", "p": 0.05}),
        (0, {"type": "extra_delay", "ns": 50_000}, {"type": "with_probability", "p": 0.05}),
        (1, {"type": "extra_delay", "ns": 1}, {"type": "always"}),
    ]
    return {
        "seed": 2024,
        "topology": {
            "replicas": 3,
            "coupling": {"mode": "tight", "skew_tolerance_cycles": 2},
            "voter": {"policy": "2oo3", "comparator": {"kind": "exact"}, "debounce_threshold": 3},
            "clock": {"freq_hz": 210_000_000, "drift_ppm": 0},
            "shared_clock": True,
            "bus_trace_compare": True,
        },
        "workload": {"frame_count": 60, "repetitions_per_frame": 2, "input_shape": [32], "arch": [32, 32, 16]},
        "faults": [{"replica_id": r, "kind": k, "trigger": t} for r, k, t in faults],
    }


def _loose_duplex_ptp_tolerance():
    return {
        "seed": 99,
        "topology": {
            "replicas": 2,
            "coupling": {"mode": "loose", "rendezvous_window_ns": 300_000},
            "voter": {"policy": "1oo2", "comparator": {"kind": "tolerance", "eps": 0.05}, "debounce_threshold": 2},
            "clocks": [{"freq_hz": 998_000_000, "drift_ppm": 40}, {"freq_hz": 1_001_000_000, "drift_ppm": -25}],
            "clock_offsets_ns": [0, 12_345],
            "feed_jitter": {"base_overhead_ns": 5_000, "spike_prob": 0.02, "spike_scale_ns": 150_000},
            "host_jitter": [
                {"base_overhead_ns": 20_000, "spike_prob": 0.03, "spike_scale_ns": 200_000, "mode2_offset_ns": 60_000, "mode2_prob": 0.2},
                {"base_overhead_ns": 26_000, "spike_prob": 0.05, "spike_scale_ns": 250_000},
            ],
            "ptp": {"enabled": True, "link_delay_ns": 800, "asymmetry_ns": 150, "slave_turnaround_ns": 40},
        },
        "workload": {"frame_count": 30, "repetitions_per_frame": 20, "input_shape": [16], "arch": [16, 16, 8]},
        "faults": [
            {"replica_id": 1, "kind": {"type": "output_bit_flip", "element_index": 2, "bit": 3}, "trigger": {"type": "with_probability", "p": 0.1}},
            {"replica_id": 0, "kind": {"type": "output_bit_flip", "element_index": 5, "bit": 14}, "trigger": {"type": "on_frame", "frame_id": 7}},
        ],
    }


def _loose_three_with_failed():
    cfg = copy.deepcopy(_loose_duplex_ptp_tolerance())
    topo = cfg["topology"]
    topo["replicas"] = 3
    topo["voter"]["policy"] = "2oo3"
    topo["clocks"].append({"freq_hz": 1_000_000_000, "drift_ppm": 10})
    topo["clock_offsets_ns"].append(-4_000)
    topo["host_jitter"].append({"base_overhead_ns": 22_000})
    topo["health"] = ["healthy", "failed", "healthy"]
    return cfg


def _no_healthy_replicas():
    # Every round raises NoHealthyReplicas at the input barrier: a release,
    # then a degraded verdict with no rendezvous; debounce 3 shows the
    # suppress, enter-safe-off and absorbing-suppress actions.
    cfg = copy.deepcopy(_loose_three_with_failed())
    cfg["topology"]["health"] = ["failed", "switched_off", "switched_off"]
    cfg["topology"]["voter"]["debounce_threshold"] = 3
    cfg["workload"].update(frame_count=3, repetitions_per_frame=2)
    cfg["faults"] = []
    return cfg


def _one_short_of_agreement():
    # One healthy channel under 2oo3: its lone output completes the
    # rendezvous but can never reach 2-way agreement. Its drops turn some
    # rounds into timeouts instead.
    cfg = copy.deepcopy(_loose_three_with_failed())
    cfg["topology"]["health"] = ["healthy", "switched_off", "switched_off"]
    cfg["topology"]["voter"]["debounce_threshold"] = 4
    cfg["workload"].update(frame_count=8, repetitions_per_frame=3)
    cfg["faults"] = [
        {"replica_id": 0, "kind": {"type": "drop_output"}, "trigger": {"type": "with_probability", "p": 0.2}},
    ]
    return cfg


def _tight_3oo4_rank2_blocks():
    # 515 = 2 * 256 + 3 frames: two full blocks of the runner's frame
    # blocks and a partial third. A rank-2 input makes the first load digest
    # encode a [4, 8] shape. Replica 3 infers on a flipped last layer every
    # round (a bus divergence that 3oo4 masks); replica 1 joins it at frame
    # 256, the first frame of a block.
    return {
        "seed": 515,
        "topology": {
            "replicas": 4,
            "coupling": {"mode": "tight", "skew_tolerance_cycles": 2},
            "voter": {"policy": "3oo4", "comparator": {"kind": "exact"}, "debounce_threshold": 1},
            "clock": {"freq_hz": 250_000_000, "drift_ppm": 0},
            "shared_clock": True,
            "bus_trace_compare": True,
        },
        "workload": {"frame_count": 515, "repetitions_per_frame": 1, "input_shape": [4, 8], "arch": [32, 12, 6]},
        "faults": [
            {"replica_id": 3, "kind": {"type": "weight_bit_flip", "layer": 1, "element_index": 29, "bit": 12},
             "trigger": {"type": "always"}},
            {"replica_id": 1, "kind": {"type": "weight_bit_flip", "layer": 1, "element_index": 3, "bit": 15},
             "trigger": {"type": "on_frame", "frame_id": 256}},
            {"replica_id": 2, "kind": {"type": "output_bit_flip", "element_index": 4, "bit": 10},
             "trigger": {"type": "with_probability", "p": 0.1}},
        ],
    }


def _loose_3_chunks_safe_off():
    # 300 frames x 30 repetitions: two frame blocks (256 + 44) and many
    # round chunks, so chunk edges fall mid-frame. Feed and host spikes (the
    # third replica's scale of 1 never takes a third draw) and random faults
    # on replicas 1 and 2 mix pass and non-pass rounds; a long delay on every
    # repetition of frame 170 times out a run of rounds, and debounce 5
    # enters SafeOff there, mid-run.
    return {
        "seed": 9030,
        "topology": {
            "replicas": 3,
            "coupling": {"mode": "loose", "rendezvous_window_ns": 250_000},
            "voter": {"policy": "2oo3", "comparator": {"kind": "exact"}, "debounce_threshold": 5},
            "clocks": [{"freq_hz": 998_000_000, "drift_ppm": 40}, {"freq_hz": 1_001_000_000, "drift_ppm": -25},
                       {"freq_hz": 1_000_000_000, "drift_ppm": 0}],
            "clock_offsets_ns": [0, 12_345, -4_000],
            "feed_jitter": {"base_overhead_ns": 5_000, "spike_prob": 0.02, "spike_scale_ns": 150_000,
                            "mode2_offset_ns": 7_000, "mode2_prob": 0.3},
            "host_jitter": [
                {"base_overhead_ns": 20_000, "spike_prob": 0.03, "spike_scale_ns": 200_000,
                 "mode2_offset_ns": 60_000, "mode2_prob": 0.2},
                {"base_overhead_ns": 26_000, "spike_prob": 0.05, "spike_scale_ns": 90_000},
                {"base_overhead_ns": 22_000, "spike_prob": 0.1, "spike_scale_ns": 1},
            ],
            "ptp": {"enabled": True, "link_delay_ns": 800, "asymmetry_ns": 150, "slave_turnaround_ns": 40},
        },
        "workload": {"frame_count": 300, "repetitions_per_frame": 30, "input_shape": [16], "arch": [16, 16, 8]},
        "faults": [
            {"replica_id": 1, "kind": {"type": "drop_output"}, "trigger": {"type": "with_probability", "p": 0.01}},
            {"replica_id": 1, "kind": {"type": "stuck_output"}, "trigger": {"type": "with_probability", "p": 0.02}},
            {"replica_id": 2, "kind": {"type": "extra_delay", "ns": 30_000},
             "trigger": {"type": "with_probability", "p": 0.05}},
            {"replica_id": 2, "kind": {"type": "output_bit_flip", "element_index": 3, "bit": 9},
             "trigger": {"type": "with_probability", "p": 0.03}},
            {"replica_id": 1, "kind": {"type": "extra_delay", "ns": 5_000_000},
             "trigger": {"type": "on_frame", "frame_id": 170}},
        ],
    }


def _loose_quiet_feed_window_edge():
    # Loose, with every feed model the all-zero default and no PTP, so the
    # header's feed_jitter is false and arrival is the turnaround plus the
    # clock offset alone. Without a host spike, replica 1 arrives exactly
    # one window after replica 0: a complete rendezvous on the inclusive
    # edge. A spike on replica 1 alone makes it late (a timeout whose late
    # replica emitted); debounce 2 suppresses one round and the next pass
    # returns the switch to rest.
    return {
        "seed": 4242,
        "topology": {
            "replicas": 2,
            "coupling": {"mode": "loose", "rendezvous_window_ns": 3_000},
            "voter": {"policy": "1oo2", "comparator": {"kind": "exact"}, "debounce_threshold": 2},
            "clocks": [{"freq_hz": 1_000_000_000, "drift_ppm": 0}, {"freq_hz": 999_000_000, "drift_ppm": 30}],
            "clock_offsets_ns": [-1_500, 2_500],
            "host_jitter": [
                {"base_overhead_ns": 10_000, "spike_prob": 0.15, "spike_scale_ns": 2_000},
                {"base_overhead_ns": 9_000, "spike_prob": 0.15, "spike_scale_ns": 2_000},
            ],
        },
        "workload": {"frame_count": 12, "repetitions_per_frame": 3, "input_shape": [8], "arch": [8, 8, 4]},
        "faults": [],
    }


CASES = {
    "tight-baseline": lambda: _shipped("tight-baseline.json"),
    "two-profiles": lambda: _shipped("two-profiles.json"),
    "tight-2oo3-all-faults": _tight_2oo3_all_faults,
    "loose-duplex-ptp-tolerance": _loose_duplex_ptp_tolerance,
    "loose-3-one-failed": _loose_three_with_failed,
    "degraded-no-healthy": _no_healthy_replicas,
    "degraded-one-short": _one_short_of_agreement,
    "paper-protocol": lambda: _shipped("paper-protocol.json"),
    "tight-3oo4-rank2-blocks": _tight_3oo4_rank2_blocks,
    "loose-3-chunks-safe-off": _loose_3_chunks_safe_off,
    "loose-quiet-feed-window-edge": _loose_quiet_feed_window_edge,
    "fault-campaign": lambda: _shipped("fault-campaign.json"),
}

SLOW_CASES = {"paper-protocol", "fault-campaign"}

# name -> (sha256 of trace.jsonl, sha256 of report.json)
PINS = {
    "tight-baseline": (
        "7d1a807132f1fea293ed55d89b202d0efcb1ee39deeed2319bb4e6cca10930be",
        "b093fc06cd99b706d7a06ef5cc2001ff050ad6a3ba34a07884030989de0101a4",
    ),
    "two-profiles": (
        "6cad5e5786f582b0ab43fdc18300fe1515f25f3d8098ab445124854f6fc9ddb7",
        "1b882fa97f05c095a8351d8b9e2f8fe0c6868bd24b57b2c84de3c01c830b09d4",
    ),
    "tight-2oo3-all-faults": (
        "cafe893358154dae432113b79b43dd686038cf0fd6cd9e0458b091ff0030be6c",
        "e93dcb38a5479f5df4c0c8dacd134671bc41b41fe8ef4ebc92042bd4a67fbc98",
    ),
    "loose-duplex-ptp-tolerance": (
        "2ef3d3119a34a47a2dff4965b6b49f38d4a28ee352c310df2b9c6a9aa49fb102",
        "af33049d5da4e546ede3a3cb28a69f889c6beb32e5abc69a0d6d646e22a84c35",
    ),
    "loose-3-one-failed": (
        "9eb88a84363c52c9b7751df064a618f0dab212233a6023a159a07c8894581d4e",
        "c63f18864ab777ea606cbf0068db927a64d9289c98cc755e61226b9c7b106ecb",
    ),
    "degraded-no-healthy": (
        "45e8e0f53d0db066337009ef81c4875c4b239fb4c8c66658910c4e0e99a0f856",
        "90df25f1faea469e512a07cfa0e1d56cc0cbd1913e5bc0347957a16ad05a8185",
    ),
    "degraded-one-short": (
        "bd993eb76c3c153288e0433221f965f8a30e4895b6a301cba6f9555e83fcf23f",
        "8c09d98077dfb8a2c1a057f361ad56cb7dcfdb58fe3403fab4f6f7e54f8c2558",
    ),
    "paper-protocol": (
        "261846575d5ccf2e13cccebbe0bb82571f69d23ad1fee29644dd372d7b5346df",
        "4bcd2d8859906dc633a710e83db6e38392cea9c63592cc487c9b69737276e123",
    ),
    "tight-3oo4-rank2-blocks": (
        "f4c51b29e60842de0b93866bf87fff4a782413a3669117e4d9c3a38b0e5e8991",
        "8f79faa6894883a55b68c8991ed9543b164701ffde1d0c2eecba078c37757741",
    ),
    "loose-3-chunks-safe-off": (
        "ad2419f0dace5dbbd919fbf06450b59e323ce5e917773f465b1fdb656fbb11d5",
        "bab6e8fe8366aadcc03d5c05a92361b0a867bae8417b2ba6325bff92400e9d28",
    ),
    "loose-quiet-feed-window-edge": (
        "5000a5627525ded32681741e1d58b82a37e2d9387d87b863e5765bb3e0cb5fd7",
        "dcfd6e2d21ec566d9c2ebb17dfa5b1abe55feee966782dffc2c13e070912e788",
    ),
    "fault-campaign": (
        "73f1019fb36326099eecd98d30c89b93edd486de878d939fe7e417307fcde2b2",
        "f58d7f7cc1adfe4e22170dbadfe3fdd10f040b35f9ac10e772cfa5160f138d44",
    ),
}

# name -> sha256 of trace.jsonl expanded to schema 3 (`helpers.expand`): the
# schema-3 trace pins, unchanged, which the frozen reference runner writes
EXPANDED_PINS = {
    "tight-baseline": "626467f040fb19576bf01bc7b48c1b7c402619719441cd61677995eaf1f17ca9",
    "two-profiles": "d1e18bccc9f899a89598eb6e07481d8434391929cf30c0dc25651d32e56e3fa2",
    "tight-2oo3-all-faults": "9d2b5db376c11737c6b71150a4a402535f646b3e39c1e4a4b5f26d71c8c4cc9e",
    "loose-duplex-ptp-tolerance": "4a7517740b4f7af37a2313edf65caa8c7f5f0a0e0a61f6f48acfb5cc42fd0c61",
    "loose-3-one-failed": "efee105871300ba112554408e8f59f2949839a69c15310604f1117ce76207ab7",
    "degraded-no-healthy": "45c831de4fa36aaceb48f7f9376745729b22bac2a9965b9a9e4e46e80f6ac510",
    "degraded-one-short": "ed2c06384f58fe77a23f4f19ffb7793ba36169b1fc3d23168a424aa941d03c07",
    "paper-protocol": "148b411b7e3e45d8251ba975c5f45469c945a018b55262871817b90b8daa9014",
    "tight-3oo4-rank2-blocks": "7e69a32c82b6dbf2b1203c7a29d88d3fd1aa681d7af7b414fb1b8078f170fe30",
    "loose-3-chunks-safe-off": "52413fbdb6a6f3d70a5a0c8e2dd76027097bb2bc22bf315493cfdd302b61200a",
    "loose-quiet-feed-window-edge": "17b373f1107990c66012565047beb6c5192f79d8c0683a18c687160d224c2d6f",
    "fault-campaign": "1c5d2e7b6774cebc9832745ca07a10bf95c8c1d7e74e9a8e49e3192a21731e67",
}

# Every record shape the trace can hold: the kind, refined by the fields
# that vary within it. A completion names its output or leaves it clean; a
# verdict writes its deliveries or not, the clean output (a frame's first
# round) or not, may have a bus divergence, and has a variant (a pass that
# names its agreement or not). What a verdict leaves to the reader varies
# too (`helpers.expand`): its rendezvous outcome (none without healthy
# replicas), a degraded one's reason and its safety action.
RECORD_SHAPES = {
    ("header",),
    ("ptp",),
    ("completion", "clean"),
    ("completion", "changed"),
    ("delivery_ns", True),
    ("delivery_ns", False),
    ("digest", True),
    ("digest", False),
    ("bus_divergence",),
    ("variant", "pass"),
    ("variant", "pass", "agreeing_ids"),
    ("variant", "mismatch"),
    ("variant", "timeout"),
    ("variant", "degraded"),
    ("rendezvous", "complete"),
    ("rendezvous", "timeout"),
    ("rendezvous", None),
    ("reason", "no healthy replicas"),
    ("reason", "1 output(s) cannot reach 2-way agreement"),
    ("action", "deliver_output"),
    ("action", "suppress_output"),
    ("action", "enter_safe_off"),
}


def _digests(name, out_dir):
    """(trace, report, expanded trace) SHA-256 of the case `name` run into `out_dir`."""
    run_to_directory(config_from_dict(CASES[name](), env={}), out_dir)
    out = Path(out_dir)
    trace_sha, report_sha = (hashlib.sha256((out / fn).read_bytes()).hexdigest()
                             for fn in (TRACE_FILENAME, REPORT_FILENAME))
    with open(out / TRACE_FILENAME) as f:
        return trace_sha, report_sha, hashlib.sha256("".join(expand(f)).encode()).hexdigest()


def _shapes(rec):
    kind = rec["kind"]
    if kind == "completion":
        return [(kind, "changed" if "digest" in rec else "clean")]
    if kind == "verdict":
        variant = ("variant", rec["variant"], *(["agreeing_ids"] if "agreeing_ids" in rec else []))
        divergence = [("bus_divergence",)] if "bus_divergence" in rec else []
        return [("delivery_ns", "delivery_ns" in rec), ("digest", "digest" in rec), *divergence, variant]
    return [(kind,)]


def _derived_shapes(rec):
    """The shapes of what a schema-3 verdict (`expand`) re-derives."""
    reason = [("reason", rec["reason"])] if "reason" in rec else []
    return [("rendezvous", rec.get("rendezvous")), *reason, ("action", rec["action"])]


@pytest.fixture(scope="module")
def case_output(tmp_path_factory):
    """name -> (trace/report/expanded trace digests, trace lines, report
    bytes); each case runs once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            out = tmp_path_factory.mktemp(name)
            digests = _digests(name, out)
            cache[name] = (digests, (out / TRACE_FILENAME).read_text().splitlines(),
                           (out / REPORT_FILENAME).read_bytes())
        return cache[name]

    return get


CASE_PARAMS = [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW_CASES else name for name in sorted(CASES)
]


def test_every_case_is_pinned():
    assert set(PINS) == set(EXPANDED_PINS) == set(CASES)


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_outputs_match_pin(name, case_output):
    assert case_output(name)[0][:2] == PINS[name]


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_expanded_trace_matches_the_schema_3_pin(name, case_output):
    assert case_output(name)[0][2] == EXPANDED_PINS[name]


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_trace_lines_are_canonical_json(name, case_output):
    # A hand-built record line must be exactly what json.dumps would write.
    for line in case_output(name)[1]:
        assert line == json.dumps(json.loads(line), separators=(",", ":"))


# The keys of each kind of record, in file order; a record holds those of
# its shape.
KEYS = {
    "header": ["t_ns", "seq", "kind", "schema_version", "package_version", "seed", "config_digest", "replica_ids",
               "compute_cycles", "required_agreement", "repetitions_per_frame", "debounce_threshold", "feed_jitter",
               "window_ns", "clock_offsets_ns"],
    "ptp": ["t_ns", "seq", "kind", "replica_id", "offset_ns", "path_delay_ns"],
    "completion": ["t_ns", "seq", "kind", "replica_id", "turnaround_ns", "digest", "classification"],
    "verdict": ["t_ns", "seq", "kind", "delivery_ns", "digest", "classification", "bus_divergence", "variant",
                "agreeing_ids", "agreed_digest", "groups"],
}


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_records_keep_the_key_order(name, case_output):
    for line in case_output(name)[1]:
        r = json.loads(line)
        assert list(r) == [key for key in KEYS[r["kind"]] if key in r]


def test_cases_cover_every_record_shape(case_output):
    seen = set()
    for name in sorted(set(CASES) - SLOW_CASES):
        lines = case_output(name)[1]
        for line in lines:
            seen.update(_shapes(json.loads(line)))
        for line in expand(lines):
            if '"kind":"verdict"' in line:
                seen.update(_derived_shapes(json.loads(line)))
    assert seen == RECORD_SHAPES


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_trace_agrees_with_the_report(name, case_output):
    _, lines, report = case_output(name)
    check_trace_against_report(lines, json.loads(report))


@pytest.mark.parametrize("name", CASE_PARAMS)
def test_in_memory_report_is_the_file(name, case_output):
    # run_to_directory writes run_experiment's report as json.dump(indent=2) would
    written = case_output(name)[2]
    in_memory = run_experiment(config_from_dict(CASES[name](), env={})).to_json_dict()
    assert (json.dumps(in_memory, indent=2) + "\n").encode() == written
    keys = list(json.loads(written))
    assert keys[0] == "schema_version"
    assert list(ExperimentReport.field_names) == keys[1:]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as d:
            digests[case] = _digests(case, d)
    sys.stdout.write("PINS = {\n")
    for case, (trace_sha, report_sha, _) in digests.items():
        sys.stdout.write(f'    "{case}": (\n        "{trace_sha}",\n        "{report_sha}",\n    ),\n')
    sys.stdout.write("}\n\nEXPANDED_PINS = {\n")
    for case, (*_, expanded_sha) in digests.items():
        sys.stdout.write(f'    "{case}": "{expanded_sha}",\n')
    sys.stdout.write("}\n")
