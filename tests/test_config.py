import json
from pathlib import Path

import pytest

from lockstepsim.config import (
    SEED_ENV_VAR,
    config_from_dict,
    load_config,
)
from lockstepsim.coupling import Loose, Tight
from lockstepsim.errors import ConfigError
from lockstepsim.voting import Exact, VotingPolicy
from helpers import zero_jitter_duplex

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
        assert cfg.profiler.alpha == 0.01
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
        "config.profiler.alpha",
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
