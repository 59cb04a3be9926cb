import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.config import (
    MAX_BIN_COUNT,
    SEED_ENV_VAR,
    config_from_dict,
    load_config,
)
from lockstepsim.coupling import Loose, Tight
from lockstepsim.errors import ConfigError
from lockstepsim.faults import Always, ExtraDelay, FaultSpec, OutputBitFlip, WithProbability
from lockstepsim.voting import Exact, VotingPolicy
from helpers import zero_jitter_duplex
from test_reference_runner import configs

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def errors_of(raw, **kw):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw, **kw)
    return exc.value.errors


class TestDefaults:
    def test_minimal_config_fills_documented_defaults(self):
        cfg = config_from_dict({"seed": 1, "topology": "gpu-duplex-loose"})
        assert cfg.workload.frame_count == 500
        assert cfg.workload.repetitions_per_frame == 100
        assert cfg.topology.replica_count == 2
        assert isinstance(cfg.topology.coupling, Loose)
        assert cfg.topology.policy == VotingPolicy(1, 2)
        assert isinstance(cfg.topology.comparator, Exact)
        assert cfg.topology.debounce_threshold == 1
        assert cfg.topology.engine.pipeline_startup_cycles == 64
        assert cfg.profiler.bin_count == 50
        assert cfg.profiler.outlier_threshold == 3.5
        assert cfg.topology.clocks[0].freq_hz == 998_000_000
        assert not cfg.topology.bus_trace_compare

    def test_tight_preset(self):
        cfg = config_from_dict({"seed": 1, "topology": "fpga-duplex-tight"})
        assert isinstance(cfg.topology.coupling, Tight)
        assert cfg.topology.coupling.skew_tolerance_cycles == 2
        assert cfg.topology.shared_clock
        assert cfg.topology.clocks[0] is cfg.topology.clocks[1]
        assert cfg.topology.clocks[0].freq_hz == 210_000_000
        assert cfg.topology.bus_trace_compare
        # the tight preset is the zero-jitter deterministic baseline
        assert all(j.base_overhead_ns == 0 and j.spike_prob == 0 for j in cfg.topology.feed_jitter)
        assert all(j.base_overhead_ns == 0 and j.spike_prob == 0 for j in cfg.topology.host_jitter)

    def test_expansion_is_idempotent(self):
        cfg = config_from_dict({"seed": 3, "topology": "gpu-duplex-loose"})
        expanded = cfg.to_json_dict()
        again = config_from_dict(json.loads(json.dumps(expanded)))
        assert again.to_json_dict() == expanded


class TestErrors:
    def test_unknown_preset_names_known_ones(self):
        errs = errors_of({"seed": 1, "topology": "gpu-duplex"})
        assert any("gpu-duplex-loose" in e and "fpga-duplex-tight" in e for e in errs)

    def test_fault_replica_out_of_range(self):
        raw = zero_jitter_duplex(faults=[{
            "replica_id": 5,
            "kind": {"type": "output_bit_flip", "element_index": 0, "bit": 0},
            "trigger": {"type": "always"},
        }])
        errs = errors_of(raw)
        assert any(e.startswith("config.faults[0].replica_id") for e in errs)

    def test_unknown_fields_rejected_everywhere(self):
        raw = zero_jitter_duplex()
        raw["surprise"] = 1
        raw["topology"]["mystery"] = 2
        raw["workload"]["bonus"] = 3
        errs = errors_of(raw)
        assert any("config.surprise" in e for e in errs)
        assert any("config.topology.mystery" in e for e in errs)
        assert any("config.workload.bonus" in e for e in errs)

    def test_all_errors_collected_not_first_only(self):
        raw = zero_jitter_duplex()
        raw["workload"]["frame_count"] = 0
        raw["topology"]["replicas"] = 0
        raw["profiler"] = {"bin_count": 0}
        errs = errors_of(raw)
        assert len(errs) >= 3

    def test_policy_must_match_replica_count(self):
        raw = zero_jitter_duplex(policy="2oo3")
        errs = errors_of(raw)
        assert any("does not match 2 replica" in e for e in errs)

    def test_input_shape_must_feed_first_layer(self):
        raw = zero_jitter_duplex()
        raw["workload"]["input_shape"] = [5]
        errs = errors_of(raw)
        assert any("input_shape" in e for e in errs)

    def test_loose_with_bus_compare_rejected(self):
        raw = zero_jitter_duplex(extra_topology={"bus_trace_compare": True})
        errs = errors_of(raw)
        assert any("bus_trace_compare" in e for e in errs)

    def test_tight_without_shared_clock_rejected(self):
        raw = zero_jitter_duplex()
        raw["topology"]["coupling"] = {"mode": "tight", "skew_tolerance_cycles": 2}
        raw["topology"]["shared_clock"] = False
        errs = errors_of(raw)
        assert any("shared" in e for e in errs)

    def test_coupling_mode_fields_cross_checked(self):
        raw = zero_jitter_duplex()
        raw["topology"]["coupling"] = {"mode": "loose", "skew_tolerance_cycles": 1}
        errs = errors_of(raw)
        assert any("skew_tolerance_cycles" in e for e in errs)

    def test_per_replica_jitter_list_length(self):
        raw = zero_jitter_duplex(extra_topology={"host_jitter": [{"base_overhead_ns": 1}]})
        errs = errors_of(raw)
        assert any("host_jitter" in e and "2 entries" in e for e in errs)

    def test_weight_fault_layer_checked_at_load(self):
        raw = zero_jitter_duplex(faults=[{
            "replica_id": 0,
            "kind": {"type": "weight_bit_flip", "layer": 9, "element_index": 0, "bit": 0},
            "trigger": {"type": "always"},
        }])
        errs = errors_of(raw)
        assert any("kind.layer" in e for e in errs)
        # layer 1 (4 in, 3 out) has elements 0-11; only this check keeps a run's flips in range
        raw["faults"][0]["kind"].update(layer=1, element_index=12)
        assert errors_of(raw) == ["config.faults[0].kind.element_index: 12 out of range for layer of 12 weights"]

    def test_nonexistent_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.json")

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert any("not valid JSON" in e for e in exc.value.errors)


class TestSeedResolution:
    def test_flag_beats_config_beats_env(self):
        raw = {"seed": 10, "topology": "fpga-duplex-tight"}
        env = {SEED_ENV_VAR: "30"}
        assert config_from_dict(raw, seed_override=20, env=env).seed == 20
        assert config_from_dict(raw, env=env).seed == 10
        del raw["seed"]
        assert config_from_dict(raw, env=env).seed == 30

    def test_missing_seed_everywhere_is_an_error(self):
        errs = errors_of({"topology": "fpga-duplex-tight"}, env={})
        assert any("seed" in e for e in errs)

    def test_bad_env_seed(self):
        errs = errors_of({"topology": "fpga-duplex-tight"}, env={SEED_ENV_VAR: "abc"})
        assert any(SEED_ENV_VAR in e for e in errs)

    def test_negative_seed_rejected_from_every_source(self):
        raw = {"seed": 3, "topology": "fpga-duplex-tight"}
        assert errors_of(raw, seed_override=-1, env={}) == ["config.seed: must be >= 0, got -1"]
        assert errors_of(dict(raw, seed=-1), env={}) == ["config.seed: must be >= 0, got -1"]
        del raw["seed"]
        assert errors_of(raw, env={SEED_ENV_VAR: "-5"}) == ["config.seed: must be >= 0, got -5"]

    def test_seed_is_64_bit_from_every_source(self):
        # 2**64 would run as seed 0; the largest seed is accepted
        raw = {"seed": 3, "topology": "fpga-duplex-tight"}
        no_seed = {"topology": "fpga-duplex-tight"}
        too_big = [f"config.seed: must be <= {2**64 - 1}, got {2**64}"]
        assert errors_of(raw, seed_override=2**64, env={}) == too_big
        assert errors_of(dict(raw, seed=2**64), env={}) == too_big
        assert errors_of(no_seed, env={SEED_ENV_VAR: str(2**64)}) == too_big
        assert config_from_dict(raw, seed_override=2**64 - 1, env={}).seed == 2**64 - 1
        assert config_from_dict(dict(raw, seed=2**64 - 1), env={}).seed == 2**64 - 1
        assert config_from_dict(no_seed, env={SEED_ENV_VAR: str(2**64 - 1)}).seed == 2**64 - 1

    @pytest.mark.parametrize("override, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), ("abc", "'abc'"), (1.7, "1.7"), (True, "True"),
    ])
    def test_seed_override_must_be_an_integer(self, override, shown):
        raw = {"seed": 3, "topology": "fpga-duplex-tight"}
        assert errors_of(raw, seed_override=override, env={}) == [
            f"config.seed: expected an integer, got {shown}"
        ]

    def test_seed_error_does_not_hide_fault_errors(self):
        raw = zero_jitter_duplex(faults=[{
            "replica_id": 0,
            "kind": {"type": "output_bit_flip", "element_index": 0, "bit": 16},
        }])
        raw["seed"] = -1
        assert errors_of(raw, env={}) == [
            "config.seed: must be >= 0, got -1",
            "config.faults[0].kind.bit: must be <= 15, got 16",
        ]


def _with_field(raw, path, value):
    *parents, key = path.split(".")[1:]
    obj = raw
    for name in parents:
        obj = obj.setdefault(name, {})
    obj[key] = value
    return raw


class TestNonFiniteNumbers:
    FIELDS = (
        "config.topology.voter.comparator.eps",
        "config.profiler.outlier_threshold",
        "config.topology.feed_jitter.spike_prob",
    )

    @pytest.mark.parametrize("token, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    @pytest.mark.parametrize("path", FIELDS)
    def test_rejected_with_field_path(self, path, token, shown):
        raw = zero_jitter_duplex()
        raw["topology"]["voter"]["comparator"] = {"kind": "tolerance", "eps": 0.5}
        text = json.dumps(_with_field(raw, path, "PLACEHOLDER")).replace('"PLACEHOLDER"', token)
        assert errors_of(json.loads(text)) == [f"{path}: must be finite, got {shown}"]

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("path", FIELDS)
    def test_integer_beyond_float_range_rejected_with_field_path(self, path, sign):
        raw = zero_jitter_duplex()
        raw["topology"]["voter"]["comparator"] = {"kind": "tolerance", "eps": 0.5}
        text = json.dumps(_with_field(raw, path, "PLACEHOLDER")).replace('"PLACEHOLDER"', sign + "9" * 400)
        assert errors_of(json.loads(text)) == [f"{path}: must be finite, got an integer too large for a float"]


class TestShippedConfigs:
    def test_paper_protocol_shape(self):
        cfg = load_config(CONFIG_DIR / "paper-protocol.json")
        assert cfg.workload.frame_count == 500
        assert cfg.workload.repetitions_per_frame == 100
        assert cfg.topology.replica_count == 2

    def test_two_profiles_has_distinct_host_jitter(self):
        cfg = load_config(CONFIG_DIR / "two-profiles.json")
        assert cfg.topology.host_jitter[0] != cfg.topology.host_jitter[1]

    def test_tight_baseline_loads(self):
        cfg = load_config(CONFIG_DIR / "tight-baseline.json")
        assert isinstance(cfg.topology.coupling, Tight)

    def test_fault_campaign_is_paper_protocol_with_two_faults(self):
        cfg = load_config(CONFIG_DIR / "fault-campaign.json")
        paper = load_config(CONFIG_DIR / "paper-protocol.json")
        assert (cfg.seed, cfg.topology, cfg.workload) == (paper.seed, paper.topology, paper.workload)
        (r0, timing), (r1, value) = cfg.faults
        assert (r0, timing) == (1, FaultSpec(ExtraDelay(1), Always()))
        assert (r1, value) == (1, FaultSpec(OutputBitFlip(3, 9), WithProbability(0.01)))


# Every bounded field, as (path, minimum, maximum). A `[i]` in a path is a
# per-replica list entry; `clocks[1]` replaces the single `clock`.
BOUNDED_FIELDS = (
    ("config.seed", 0, 2**64 - 1),
    ("config.topology.replicas", 1, 8),
    ("config.topology.coupling.skew_tolerance_cycles", 0, None),
    ("config.topology.coupling.rendezvous_window_ns", 1, None),
    ("config.topology.voter.policy.m", 1, 8),
    ("config.topology.voter.policy.n", 1, 8),
    ("config.topology.voter.comparator.eps", 0.0, None),
    ("config.topology.voter.debounce_threshold", 1, None),
    ("config.topology.clock.freq_hz", 1, None),
    ("config.topology.clock.drift_ppm", -(10**6) + 1, None),
    ("config.topology.clocks[1].freq_hz", 1, None),
    ("config.topology.clocks[1].drift_ppm", -(10**6) + 1, None),
    ("config.topology.engine.cycles_per_mac", 1, None),
    ("config.topology.engine.cycles_per_load", 1, None),
    ("config.topology.engine.cycles_per_store", 1, None),
    ("config.topology.engine.pipeline_startup_cycles", 0, None),
    *(
        (f"config.topology.{key}.{name}", lo, hi)
        for key in ("feed_jitter", "host_jitter", "feed_jitter[0]", "host_jitter[1]")
        for name, lo, hi in (
            ("base_overhead_ns", 0, None),
            ("spike_prob", 0.0, 1.0),
            ("spike_scale_ns", 1, None),
            ("mode2_offset_ns", 0, None),
            ("mode2_prob", 0.0, 1.0),
        )
    ),
    ("config.topology.ptp.link_delay_ns", 0, None),
    ("config.topology.ptp.slave_turnaround_ns", 0, None),
    ("config.workload.frame_count", 1, None),
    ("config.workload.repetitions_per_frame", 1, None),
    ("config.faults[0].replica_id", 0, None),
    ("config.faults[0].kind.layer", 0, None),
    ("config.faults[0].kind.element_index", 0, None),
    ("config.faults[0].kind.bit", 0, 15),
    ("config.faults[1].kind.element_index", 0, None),
    ("config.faults[1].kind.bit", 0, 15),
    ("config.faults[2].kind.ns", 0, None),
    ("config.faults[1].trigger.frame_id", 0, None),
    ("config.faults[2].trigger.p", 0.0, 1.0),
    ("config.profiler.bin_count", 1, MAX_BIN_COUNT),
    ("config.profiler.outlier_threshold", 0.0, None),
)


def _bounded_config(path, value):
    """A valid config with the field at `path` set to `value`."""
    raw = zero_jitter_duplex(faults=[
        {"replica_id": 0, "kind": {"type": "weight_bit_flip", "layer": 0, "element_index": 0, "bit": 0}},
        {"replica_id": 1, "kind": {"type": "output_bit_flip", "element_index": 0, "bit": 0},
         "trigger": {"type": "on_frame", "frame_id": 0}},
        {"replica_id": 1, "kind": {"type": "extra_delay", "ns": 0},
         "trigger": {"type": "with_probability", "p": 0.5}},
    ])
    topo = raw["topology"]
    if ".coupling.skew" in path:
        topo["coupling"] = {"mode": "tight"}
    if ".comparator." in path:
        topo["voter"]["comparator"] = {"kind": "tolerance", "eps": 0.5}
    if ".policy." in path:
        topo["voter"]["policy"] = {"m": 1, "n": 2}
    if ".clocks[" in path:
        topo["clocks"] = [topo.pop("clock"), {"freq_hz": 1_000_000_000}]
    *parents, key = path.replace("[", ".[").split(".")[1:]
    obj = raw
    for name in parents:
        if name.startswith("["):
            index = int(name[1:-1])
            if not isinstance(obj, list):  # make the per-replica (or clocks) list
                obj = parent[last] = [{}, {}]
            obj = obj[index]
        else:
            parent, last = obj, name
            obj = obj.setdefault(name, {})
    obj[key] = value
    return raw


BOUND_VIOLATIONS = [
    *((path, minimum - 1, f"must be >= {minimum}") for path, minimum, _ in BOUNDED_FIELDS),
    *((path, maximum + 1, f"must be <= {maximum}") for path, _, maximum in BOUNDED_FIELDS if maximum is not None),
]


@pytest.mark.parametrize("path, value, bound", BOUND_VIOLATIONS,
                         ids=[f"{p}{b[8:10]}" for p, _, b in BOUND_VIOLATIONS])
def test_bound_violation_message(path, value, bound):
    assert errors_of(_bounded_config(path, value), env={}) == [f"{path}: {bound}, got {value}"]


def _round_trip_cases():
    from test_golden import CASES  # the shipped configs and the pinned run configs

    cases = dict(CASES)
    for preset in ("gpu-duplex-loose", "fpga-duplex-tight"):
        cases[preset] = lambda p=preset: {"seed": 1, "topology": p}
    return cases


ROUND_TRIP_CASES = _round_trip_cases()


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_expanded_config_round_trips(name):
    d = config_from_dict(ROUND_TRIP_CASES[name](), env={}).to_json_dict()
    assert json.loads(json.dumps(d)) == d
    assert config_from_dict(d, env={}).to_json_dict() == d


# Fault indices are checked against the workload: arch [4, 3, 2], 10 frames.
@pytest.mark.parametrize("kind, trigger, path", [
    ({"type": "weight_bit_flip", "layer": 1, "element_index": 5, "bit": 15}, {"type": "always"}, None),
    ({"type": "weight_bit_flip", "layer": 2, "element_index": 0, "bit": 0}, {"type": "always"}, "kind.layer"),
    ({"type": "weight_bit_flip", "layer": 0, "element_index": 12, "bit": 0}, {"type": "always"}, "kind.element_index"),
    ({"type": "output_bit_flip", "element_index": 2, "bit": 0}, {"type": "always"}, "kind.element_index"),
    ({"type": "output_bit_flip", "element_index": 0, "bit": 16}, {"type": "always"}, "kind.bit"),
    ({"type": "output_bit_flip", "element_index": 0, "bit": 0}, {"type": "on_frame", "frame_id": 10}, "trigger.frame_id"),
    ({"type": "output_bit_flip", "element_index": 0, "bit": 0}, {"type": "with_probability", "p": 1.5}, "trigger.p"),
], ids=["valid", "weight-layer", "weight-element", "output-element", "output-bit", "on-frame", "probability"])
def test_fault_checked_at_load(kind, trigger, path):
    raw = zero_jitter_duplex(frames=10, arch=(4, 3, 2), input_shape=(4,),
                             faults=[{"replica_id": 0, "kind": kind, "trigger": trigger}])
    if path is None:
        assert config_from_dict(raw).faults[0][0] == 0
    else:
        errs = errors_of(raw)
        assert len(errs) == 1 and errs[0].startswith(f"config.faults[0].{path}: ")


@pytest.mark.parametrize("key", ["feed_jitter", "host_jitter"])
def test_null_jitter_rejected(key):
    raw = zero_jitter_duplex(extra_topology={key: None})
    assert errors_of(raw) == [f"config.topology.{key}: expected an object"]


class TestPtpAsymmetry:
    def _raw(self, asymmetry_ns, enabled=True):
        return zero_jitter_duplex(extra_topology={
            "ptp": {"enabled": enabled, "link_delay_ns": 500, "asymmetry_ns": asymmetry_ns},
        })

    def test_negative_forward_delay_rejected_at_load(self):
        assert errors_of(self._raw(-600)) == [
            "config.topology.ptp.asymmetry_ns: must be >= -link_delay_ns = -500 when ptp is enabled, got -600"
        ]

    def test_zero_forward_delay_accepted(self):
        assert config_from_dict(self._raw(-500)).topology.ptp.asymmetry_ns == -500

    def test_ignored_while_disabled(self):
        assert config_from_dict(self._raw(-600, enabled=False)).topology.ptp.asymmetry_ns == -600


@pytest.mark.parametrize("path, value, expected", [
    ("config.topology.coupling.mode", "medium", "'tight', 'loose'"),
    ("config.topology.voter.comparator.kind", "fuzzy", "'exact', 'tolerance'"),
    ("config.faults[0].kind.type", "bit_rot",
     "'weight_bit_flip', 'output_bit_flip', 'extra_delay', 'drop_output', 'stuck_output'"),
    ("config.faults[1].trigger.type", "sometimes", "'always', 'on_frame', 'with_probability'"),
])
def test_bad_tag_names_the_choices(path, value, expected):
    assert errors_of(_bounded_config(path, value), env={}) == [
        f"{path}: expected one of {expected}, got {value!r}"
    ]


def test_profiler_alpha_is_refused():
    # `compare --alpha` sets the KS level; a config carries none
    raw = zero_jitter_duplex()
    raw["profiler"] = {"bin_count": 50, "alpha": 0.01}
    assert errors_of(raw, env={}) == ["config.profiler.alpha: unknown field"]


TOPO = "config.topology"


def _topology_with(**changes):
    """The quiet duplex with topology keys set (a None value removes the key)."""
    raw = zero_jitter_duplex()
    for key, value in changes.items():
        if value is None:
            raw["topology"].pop(key, None)
        else:
            raw["topology"][key] = value
    return raw


PER_REPLICA = "expected a list of 2 entries (one per replica)"


# Each topology whose errors no other test pins, with its full error list.
@pytest.mark.parametrize("raw, expected", [
    (_topology_with(voter=3), [f"{TOPO}.voter: expected an object"]),
    (_topology_with(voter={"policy": "1oo2", "quorum": 1}), [f"{TOPO}.voter.quorum: unknown field"]),
    (_topology_with(clocks=[{"freq_hz": 1}, {"freq_hz": 1}]), [f"{TOPO}: give either 'clock' or 'clocks', not both"]),
    (_topology_with(clock=None, clocks={"freq_hz": 1}), [f"{TOPO}.clocks: {PER_REPLICA}"]),
    (_topology_with(clock=None, clocks=[{"freq_hz": 1}]), [f"{TOPO}.clocks: {PER_REPLICA}"]),
    (_topology_with(clock=None, shared_clock=True, clocks=[{"freq_hz": 1}, {"freq_hz": 2}]),
     [f"{TOPO}.clocks: shared_clock requires identical clock parameters"]),
    (_topology_with(clock_offsets_ns=[0]), [f"{TOPO}.clock_offsets_ns: {PER_REPLICA}"]),
    (_topology_with(clock_offsets_ns=[0, "a"]), [f"{TOPO}.clock_offsets_ns[1]: expected an integer, got 'a'"]),
    (_topology_with(host_jitter=[{}]), [f"{TOPO}.host_jitter: {PER_REPLICA}"]),
    (_topology_with(health="healthy"), [f"{TOPO}.health: {PER_REPLICA}"]),
    (_topology_with(health=["healthy", "sick"]),
     [f"{TOPO}.health[1]: unknown state 'sick'; one of healthy, failed, switched_off"]),
    (_topology_with(replicas=None), [f"{TOPO}.replicas: required field missing"]),
    (_topology_with(replicas="two"), [f"{TOPO}.replicas: expected an integer, got 'two'"]),
    (_topology_with(voter={"policy": "2oo3"}, health=["healthy", "ill"]), [  # checks across fields last
        f"{TOPO}.health[1]: unknown state 'ill'; one of healthy, failed, switched_off",
        f"{TOPO}.voter.policy: policy 2oo3 does not match 2 replica(s)",
    ]),
], ids=["voter-not-object", "voter-unknown-key", "clock-and-clocks", "clocks-not-list", "clocks-length",
        "shared-unequal-clocks", "offsets-length", "offsets-element", "jitter-length", "health-not-list", "health-state",
        "replicas-missing", "replicas-not-int", "policy-and-health"])
def test_topology_error_list(raw, expected):
    assert errors_of(raw) == expected


# Each per-replica field and the key that holds one entry for all (None: lists only).
PER_REPLICA_KEYS = {"clocks": "clock", "feed_jitter": "feed_jitter", "host_jitter": "host_jitter",
                    "clock_offsets_ns": None, "health": None}


@st.composite
def per_replica_forms(draw):
    """A generated config whose present per-replica fields each take one
    entry for all or a list, and the same config with every one a list."""
    raw = draw(configs())
    topo = raw["topology"]
    n = topo["replicas"]
    as_lists = json.loads(json.dumps(raw))
    for key, single in PER_REPLICA_KEYS.items():
        value = topo.pop(single, None) if single else None
        value = topo.pop(key, value)
        if value is None:
            continue
        entries = value if isinstance(value, list) else [value] * n
        if single and draw(st.booleans()):
            entries = [entries[0]] * n
            topo[single] = entries[0]
        else:
            topo[key] = entries
        as_lists["topology"].pop(single, None)
        as_lists["topology"][key] = entries
    return raw, as_lists


@settings(settings.get_profile("oracle-fuzz"))
@given(per_replica_forms())
def test_per_replica_forms_round_trip(forms):
    raw, as_lists = forms
    d = config_from_dict(raw, env={}).to_json_dict()
    # one entry for all expands to the list it stands for
    assert d == config_from_dict(as_lists, env={}).to_json_dict()
    assert json.dumps(config_from_dict(d, env={}).to_json_dict()) == json.dumps(d)
    assert all(len(d["topology"][key]) == raw["topology"]["replicas"] for key in PER_REPLICA_KEYS)
