import json
from pathlib import Path

import pytest

from lockstepsim.config import config_from_dict, load_config
from lockstepsim.errors import ConfigError, SimulationError
from lockstepsim.eventsim import ClockDomain, cycles_to_time
from lockstepsim.experiment import (
    compare_runs,
    render_comparison_table,
    run_experiment,
    run_to_directory,
)
from lockstepsim.faults import ExtraDelay, FaultSpec
from helpers import run_with_records, zero_jitter_duplex

CONFIG_DIR = Path(__file__).parent.parent / "configs"


class TestHealthyBaseline:
    def test_all_pass_zero_skew(self):
        cfg, report, _ = run_with_records(zero_jitter_duplex(frames=10, reps=3))
        total = 10 * 3
        assert report.verdict_counts == {"pass": total, "mismatch": 0, "timeout": 0, "degraded": 0}
        assert report.skew_ns == {"n": total, "min": 0, "mean": 0.0, "max": 0}
        assert report.safety["final_state"] == "operational"
        assert report.faults["injected"] == 0

    def test_zero_jitter_turnaround_equals_pure_compute_time(self):
        # with every jitter parameter zero the measured turnaround is exactly
        # the cycle count converted on the replica clock
        cfg, report, records = run_with_records(zero_jitter_duplex(frames=4, reps=2))
        clock = cfg.topology.clocks[0]
        for rec in records:
            if rec["kind"] == "completion":
                assert rec["turnaround_ns"] == cycles_to_time(rec["compute_cycles"], clock)

    def test_sample_conservation(self):
        cfg, report, _ = run_with_records(zero_jitter_duplex(frames=7, reps=4))
        for rid in (0, 1):
            assert len(report.replicas[rid]["samples"]) == 7 * 4
        assert sum(report.verdict_counts.values()) == 7 * 4

    def test_tight_preset_baseline(self):
        raw = {
            "seed": 5,
            "topology": "fpga-duplex-tight",
            "workload": {"frame_count": 6, "repetitions_per_frame": 2,
                         "input_shape": [4], "arch": [4, 4, 3]},
        }
        cfg = config_from_dict(raw)
        report = run_experiment(cfg)
        assert report.verdict_counts["pass"] == 12
        assert report.skew_ns["max"] == 0
        assert report.bus == {"comparisons": 12, "divergences": 0}


class TestFaultScenarios:
    def test_single_bit_flip_trips_safety_once(self):
        raw = zero_jitter_duplex(frames=10, reps=1, faults=[{
            "replica_id": 1,
            "kind": {"type": "output_bit_flip", "element_index": 0, "bit": 0},
            "trigger": {"type": "on_frame", "frame_id": 7},
        }])
        cfg, report, records = run_with_records(raw)
        assert report.verdict_counts["mismatch"] == 1
        assert report.verdict_counts["pass"] == 9
        assert report.safety["final_state"] == "safe_off"
        assert report.faults == {
            "injected": 1, "detected": 1, "masked_pass": 0, "corrupted_pass": 0,
        }
        verdicts = [(r["frame_id"], r["variant"]) for r in records if r["kind"] == "verdict"]
        assert verdicts[7] == (7, "mismatch")
        actions = [r["action"] for r in records if r["kind"] == "safety_action"]
        assert actions[:7] == ["deliver_output"] * 7
        assert actions[7] == "enter_safe_off"
        assert actions[8:] == ["suppress_output"] * 2
        assert report.safety["timeline"] == [{
            "t_ns": report.safety["timeline"][0]["t_ns"],
            "frame_id": 7, "repetition": 0,
            "from": "operational", "to": "safe_off",
        }]

    def test_drop_output_times_out(self):
        raw = zero_jitter_duplex(frames=5, reps=1, faults=[{
            "replica_id": 0,
            "kind": {"type": "drop_output"},
            "trigger": {"type": "on_frame", "frame_id": 2},
        }])
        cfg, report, records = run_with_records(raw)
        assert report.verdict_counts["timeout"] == 1
        timeouts = [r for r in records if r["kind"] == "verdict" and r["variant"] == "timeout"]
        assert timeouts[0]["missing_ids"] == [0]
        # the dropped output produces no completion record and no sample
        assert len(report.replicas[0]["samples"]) == 4
        assert len(report.replicas[1]["samples"]) == 5

    def test_stuck_output_replays_previous_frame(self):
        # seed chosen so frames 0 and 1 have different healthy outputs
        raw = zero_jitter_duplex(seed=2, frames=3, reps=1, faults=[{
            "replica_id": 1,
            "kind": {"type": "stuck_output"},
            "trigger": {"type": "on_frame", "frame_id": 1},
        }])
        cfg, report, records = run_with_records(raw)
        completions = [r for r in records if r["kind"] == "completion"]
        frame0 = {r["replica_id"]: r["digest"] for r in completions if r["frame_id"] == 0}
        frame1 = {r["replica_id"]: r["digest"] for r in completions if r["frame_id"] == 1}
        assert frame0[0] != frame1[0]  # scenario precondition
        # frame 1: replica 1 replays frame 0's output; the comparator catches it
        assert report.verdict_counts["mismatch"] == 1
        assert frame1[1] == frame0[1]
        assert frame1[0] != frame1[1]

    def test_stuck_output_on_first_frame_is_noop(self):
        raw = zero_jitter_duplex(frames=2, reps=1, faults=[{
            "replica_id": 1,
            "kind": {"type": "stuck_output"},
            "trigger": {"type": "on_frame", "frame_id": 0},
        }])
        cfg, report, _ = run_with_records(raw)
        assert report.verdict_counts["pass"] == 2

    def test_extra_delay_beyond_tight_tolerance_flags_exact_frames(self):
        clock = ClockDomain("dpu", 210_000_000)
        delay = cycles_to_time(3, clock)
        faults = [
            {"replica_id": 1, "kind": {"type": "extra_delay", "ns": delay},
             "trigger": {"type": "on_frame", "frame_id": f}}
            for f in (3, 7)
        ]
        raw = {
            "seed": 5,
            "topology": "fpga-duplex-tight",
            "workload": {"frame_count": 10, "repetitions_per_frame": 1,
                         "input_shape": [4], "arch": [4, 4, 3]},
            "faults": faults,
        }
        cfg, report, records = run_with_records(raw)
        flagged = sorted(r["frame_id"] for r in records
                         if r["kind"] == "verdict" and r["variant"] == "timeout")
        assert flagged == [3, 7]
        assert report.verdict_counts["timeout"] == 2

    def test_extra_delay_within_tolerance_passes(self):
        clock = ClockDomain("dpu", 210_000_000)
        delay = cycles_to_time(2, clock)
        raw = {
            "seed": 5,
            "topology": "fpga-duplex-tight",
            "workload": {"frame_count": 4, "repetitions_per_frame": 1,
                         "input_shape": [4], "arch": [4, 4, 3]},
            "faults": [{"replica_id": 1, "kind": {"type": "extra_delay", "ns": delay},
                        "trigger": {"type": "always"}}],
        }
        report = run_experiment(config_from_dict(raw))
        assert report.verdict_counts["pass"] == 4
        assert report.skew_ns["max"] == delay

    def test_completion_before_its_delivery_raises(self):
        # config validation rejects a negative delay; a hand-built config
        # that carries one must still not move simulated time backwards
        cfg = config_from_dict(zero_jitter_duplex(frames=2))
        cfg.faults = [(1, FaultSpec(ExtraDelay(-10**9)))]
        with pytest.raises(SimulationError, match="replica 1, frame 0"):
            run_experiment(cfg)

    def test_weight_fault_diverges_bus_trace(self):
        raw = {
            "seed": 5,
            "topology": "fpga-duplex-tight",
            "workload": {"frame_count": 3, "repetitions_per_frame": 1,
                         "input_shape": [4], "arch": [4, 4, 3]},
            "faults": [{"replica_id": 1,
                        "kind": {"type": "weight_bit_flip", "layer": 0,
                                 "element_index": 2, "bit": 11},
                        "trigger": {"type": "on_frame", "frame_id": 1}}],
        }
        _, report, records = run_with_records(raw)
        assert report.bus["divergences"] == 1
        div = [r for r in records if r["kind"] == "bus_divergence"]
        assert len(div) == 1 and div[0]["frame_id"] == 1

    def test_probabilistic_fault_accounting(self):
        raw = zero_jitter_duplex(frames=200, reps=1, faults=[{
            "replica_id": 0,
            "kind": {"type": "output_bit_flip", "element_index": 1, "bit": 3},
            "trigger": {"type": "with_probability", "p": 0.3},
        }])
        cfg, report, _ = run_with_records(raw)
        fs = report.faults
        assert fs["injected"] == report.verdict_counts["mismatch"]
        assert fs["detected"] == fs["injected"]
        assert fs["corrupted_pass"] == 0
        assert 30 <= fs["injected"] <= 90  # ~Binomial(200, 0.3)


class TestDegradedTopologies:
    def test_one_failed_replica_in_duplex_degrades(self):
        raw = zero_jitter_duplex(frames=3, reps=1,
                                 extra_topology={"health": ["healthy", "failed"]})
        cfg, report, _ = run_with_records(raw)
        assert report.verdict_counts["degraded"] == 3
        assert report.safety["final_state"] == "safe_off"
        assert len(report.replicas[1]["samples"]) == 0

    def test_no_healthy_replicas_degrades_immediately(self):
        raw = zero_jitter_duplex(frames=2, reps=1,
                                 extra_topology={"health": ["failed", "failed"]})
        cfg, report, _ = run_with_records(raw)
        assert report.verdict_counts["degraded"] == 2
        assert all(row["samples"] == [] for row in report.replicas)

    def test_2oo3_with_one_failed_channel_still_passes(self):
        raw = zero_jitter_duplex(frames=3, reps=1, replicas=3, policy="2oo3",
                                 extra_topology={"health": ["healthy", "healthy", "failed"]})
        cfg, report, _ = run_with_records(raw)
        assert report.verdict_counts["pass"] == 3


class TestClockOffsetsAndPtp:
    def test_uncorrected_offset_appears_as_skew(self):
        raw = zero_jitter_duplex(frames=4, reps=1,
                                 extra_topology={"clock_offsets_ns": [0, 500]})
        cfg, report, _ = run_with_records(raw)
        assert report.skew_ns["max"] == 500
        assert report.skew_ns["min"] == 500

    def test_ptp_alignment_removes_injected_offset(self):
        raw = zero_jitter_duplex(frames=4, reps=1, extra_topology={
            "clock_offsets_ns": [0, 500],
            "ptp": {"enabled": True, "link_delay_ns": 800},
        })
        cfg, report, records = run_with_records(raw)
        assert report.skew_ns["max"] == 0
        ptp = [r for r in records if r["kind"] == "ptp"]
        assert [p["offset_ns"] for p in ptp] == [0, 500]
        assert report.ptp[1]["path_delay_ns"] == 800

    def test_asymmetric_link_leaves_half_the_asymmetry(self):
        raw = zero_jitter_duplex(frames=2, reps=1, extra_topology={
            "clock_offsets_ns": [0, 500],
            "ptp": {"enabled": True, "link_delay_ns": 800, "asymmetry_ns": 100},
        })
        cfg, report, _ = run_with_records(raw)
        # both replicas over-corrected by a/2 = 50 equally, except replica 0
        # had no offset: skew is the residual difference
        assert report.skew_ns["max"] == 0  # same correction error on both sides cancels


class TestDeterminismAndFiles:
    def test_identical_runs_identical_records_and_reports(self):
        raw = {
            "seed": 99,
            "topology": "gpu-duplex-loose",
            "workload": {"frame_count": 12, "repetitions_per_frame": 3,
                         "input_shape": [4], "arch": [4, 4, 3]},
        }
        outs = []
        for _ in range(2):
            _, report, records = run_with_records(raw)
            outs.append((records, report.to_json_dict()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_records_strictly_ordered(self):
        raw = {
            "seed": 4,
            "topology": "gpu-duplex-loose",
            "workload": {"frame_count": 8, "repetitions_per_frame": 2,
                         "input_shape": [4], "arch": [4, 4, 3]},
        }
        _, _, records = run_with_records(raw)
        keys = [(r["t_ns"], r["seq"]) for r in records]
        assert keys == sorted(keys)
        assert len({r["seq"] for r in records}) == len(records)

    def test_run_to_directory_outputs(self, tmp_path):
        raw = zero_jitter_duplex(frames=5, reps=2)
        cfg = config_from_dict(raw)
        report = run_to_directory(cfg, tmp_path / "r1")
        d = tmp_path / "r1"
        assert (d / "trace.jsonl").is_file()
        assert (d / "report.json").is_file()
        assert (d / "hist_replica0.csv").is_file()
        assert (d / "hist_replica1.csv").is_file()
        lines = (d / "trace.jsonl").read_text().splitlines()
        parsed = [json.loads(l) for l in lines]
        assert sum(1 for r in parsed if r["kind"] == "verdict") == 10
        blob = json.loads((d / "report.json").read_text())
        assert blob["schema_version"] == 1
        assert blob["config"]["seed"] == cfg.seed
        assert (d / "hist_replica0.csv").read_text().startswith("lower_edge_ns,count")


class TestCompareRuns:
    def _report(self, seed=1, frames=8, host_jitter=None):
        extra = {"host_jitter": host_jitter} if host_jitter else None
        raw = zero_jitter_duplex(seed=seed, frames=frames, reps=2, extra_topology=extra)
        return run_experiment(config_from_dict(raw)).to_json_dict()

    def test_self_comparison_not_distinguishable(self):
        rep = self._report()
        cmp = compare_runs(rep, rep)
        assert all(r["ks"]["d"] == 0.0 for r in cmp["replicas"])
        assert not cmp["any_distinguishable"]

    def test_different_jitter_distinguishable(self):
        a = self._report(host_jitter={"base_overhead_ns": 100})
        b = self._report(host_jitter={"base_overhead_ns": 90_000})
        cmp = compare_runs(a, b)
        assert cmp["any_distinguishable"]

    def test_refusal_below_four_samples(self):
        tiny = run_experiment(config_from_dict(zero_jitter_duplex(frames=1, reps=2))).to_json_dict()
        ok = self._report()
        with pytest.raises(ConfigError) as exc:
            compare_runs(tiny, ok)
        assert any("refused" in e for e in exc.value.errors)

    def test_table_renders(self):
        rep = self._report()
        table = render_comparison_table(compare_runs(rep, rep))
        assert "replica" in table.splitlines()[0]
        assert len(table.splitlines()) == 4  # header, rule, two replicas
