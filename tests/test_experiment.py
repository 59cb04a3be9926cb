import io
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockstepsim import experiment, profiling
from lockstepsim.config import config_from_dict, load_config
from lockstepsim.errors import ConfigError, SimulationError
from lockstepsim.eventsim import ClockDomain, cycles_to_time
from lockstepsim.experiment import run_experiment, run_to_directory, write_report
from lockstepsim.faults import ExtraDelay, FaultSpec, OnFrame, WithProbability, flip_weight_bits, trigger_fires
from lockstepsim.profiling import compare_runs, render_comparison_table
from lockstepsim.replica import gen_frames, gen_weights
from lockstepsim.rng import derive_seed
from helpers import rounds_of, run_with_records, zero_jitter_duplex

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
        want = cycles_to_time(records[0]["compute_cycles"], cfg.topology.clocks[0])
        turnarounds = [rec["turnaround_ns"] for rec in records if rec["kind"] == "completion"]
        assert len(turnarounds) == 16 and set(turnarounds) == {want}

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
        actions = [r["action"] for r in records if r["kind"] == "verdict"]
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
        completions = [c for _, cs in rounds_of(records) for c in cs]
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
        clock = ClockDomain(210_000_000)
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
        clock = ClockDomain(210_000_000)
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

    @staticmethod
    def _negative_delay():
        """An ExtraDelay of -1 s, past the bound its constructor checks."""
        delay = ExtraDelay(0)
        object.__setattr__(delay, "ns", -10**9)
        return delay

    def test_completion_before_its_delivery_raises(self):
        # config validation rejects a negative delay; a hand-built config
        # that carries one must still not move simulated time backwards
        cfg = config_from_dict(zero_jitter_duplex(frames=2))
        cfg.faults = [(1, FaultSpec(self._negative_delay()))]
        with pytest.raises(SimulationError, match="replica 1, frame 0"):
            run_experiment(cfg)

    def test_negative_delay_names_its_replica_and_frame(self):
        # the check runs on a chunk's arrays; the first bad round is named
        cfg = config_from_dict(zero_jitter_duplex(frames=6, reps=3))
        cfg.faults = [(0, FaultSpec(self._negative_delay(), OnFrame(4)))]
        with pytest.raises(SimulationError, match="replica 0, frame 4: delivery at 0 ns"):
            run_experiment(cfg)

    def test_time_past_2_62_ns_is_refused(self):
        # int64 holds every simulated time, or the run does not start
        raw = zero_jitter_duplex(frames=4, faults=[
            {"replica_id": 1, "kind": {"type": "extra_delay", "ns": 2**60}, "trigger": {"type": "always"}}])
        with pytest.raises(SimulationError, match="2\\*\\*62 ns"):
            run_experiment(config_from_dict(raw))
        raw["workload"]["frame_count"] = 3
        report = run_experiment(config_from_dict(raw))
        assert report.verdict_counts["timeout"] == 3
        assert min(report.replicas[1]["samples"]) > 2**60

    @staticmethod
    def _flipped_on_frame_1(flips):
        """A tight duplex of 3 frames whose replica 1 flips one weight bit
        `flips` times on frame 1."""
        return {
            "seed": 5,
            "topology": "fpga-duplex-tight",
            "workload": {"frame_count": 3, "repetitions_per_frame": 1,
                         "input_shape": [4], "arch": [4, 4, 3]},
            "faults": [{"replica_id": 1,
                        "kind": {"type": "weight_bit_flip", "layer": 0,
                                 "element_index": 2, "bit": 11},
                        "trigger": {"type": "on_frame", "frame_id": 1}}] * flips,
        }

    def test_weight_fault_diverges_bus_trace(self):
        _, report, records = run_with_records(self._flipped_on_frame_1(1))
        assert report.bus["divergences"] == 1
        div = [r for r in records if "bus_divergence" in r]
        assert len(div) == 1 and div[0]["frame_id"] == 1

    def test_weight_flips_that_cancel_leave_the_bus_trace_alone(self):
        # the flip set runs on new arrays that hold the clean parameters
        _, report, records = run_with_records(self._flipped_on_frame_1(2))
        assert report.bus == {"comparisons": 3, "divergences": 0}
        assert report.faults == {"injected": 1, "detected": 0, "masked_pass": 1, "corrupted_pass": 0}

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
        assert all(len(row["samples"]) == 0 for row in report.replicas)

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


class TestMemoryPerRound:
    def test_report_holds_the_samples_and_little_more(self):
        # Untraced gpu-duplex-loose, 50k rounds: two replicas' int64 samples
        # are 16 B per round. Python int lists of them took about 85 B per
        # round to hold and 150 B per round at the peak.
        cfg = config_from_dict({"seed": 1, "topology": "gpu-duplex-loose",
                                "workload": {"frame_count": 500, "repetitions_per_frame": 100}}, env={})
        rounds = 500 * 100
        run_experiment(cfg)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run_experiment(cfg)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, (row["samples"] for row in report.replicas))) == 2 * rounds
        assert (live - before) / rounds < 40
        assert (peak - before) / rounds < 120

    def test_untraced_round_loop_holds_one_chunk_at_a_time(self):
        # Untraced gpu-duplex-loose, 50k rounds, read at the entry of
        # `_build_report`: the samples are 16 B per round, and the skews four
        # running scalars. The peak read 28.9 B per round, 36.2 when the
        # skews were kept as arrays, and 46.8 when `run` still held a chunk's
        # columns while the next chunk ran.
        cfg = config_from_dict({"seed": 1, "topology": "gpu-duplex-loose",
                                "workload": {"frame_count": 500, "repetitions_per_frame": 100}}, env={})
        rounds = 500 * 100
        build, peaks = experiment.ExperimentRunner._build_report, []

        def build_report(runner, expanded):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return build(runner, expanded)

        run_experiment(cfg)  # warm-up: imports and caches
        with mock.patch.object(experiment.ExperimentRunner, "_build_report", build_report):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run_experiment(cfg)
            finally:
                tracemalloc.stop()
        assert (peaks[0] - before) / rounds < 42

    def test_traced_run_builds_trace_objects_a_piece_at_a_time(self, tmp_path):
        # Traced gpu-duplex-loose, 5000 rounds: a chunk of 4096 rounds and
        # one of 904. The peak read 241 B per round with the slots, the
        # changed-output texts, the verdict tails and the templates laid out
        # once per chunk and each 128-round piece of it making its value
        # tuples and text (218 B when each piece cut its own sparse rows),
        # 191 B when each piece laid out its own slots, and 1093 B per round
        # when every column of the whole chunk became lists.
        cfg = config_from_dict({"seed": 1, "topology": "gpu-duplex-loose",
                                "workload": {"frame_count": 50, "repetitions_per_frame": 100}}, env={})
        rounds = 50 * 100
        run_to_directory(cfg, tmp_path)  # warm-up: imports and caches
        with mock.patch.object(experiment, "ROUND_CHUNK", 4096):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run_to_directory(cfg, tmp_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak - before) / rounds < 700

    def test_tight_run_of_one_chunk_builds_trace_text_a_piece_at_a_time(self, tmp_path):
        # Tight 2oo3 with every fault kind, 1500 frames of one round each:
        # one block and one chunk of 1500 rounds, each a fresh frame. The
        # peak read 837 B per round with the slots, texts, tails and
        # templates laid out per chunk and the trace text built per piece
        # (703 B when each piece cut its own sparse rows: every round here
        # is a frame's first, so every tail carries the clean output), 657 B
        # when each piece laid out its own slots, and 1809 B per round with
        # the completion, agreement and safety tails and the sparse kinds'
        # lists built for the whole chunk.
        cfg = config_from_dict(tight_all_faults(1500), env={})
        run_to_directory(cfg, tmp_path)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_to_directory(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / 1500 < 1400


def tight_all_faults(frames):
    """3 tight replicas of a [32, 32, 16] net with bus compare and 2oo3, one
    round per frame, and a fault of every kind fired by probability."""
    def fault(rid, kind, p):
        return {"replica_id": rid, "kind": kind, "trigger": {"type": "with_probability", "p": p}}
    return {
        "seed": 11,
        "topology": {"replicas": 3, "coupling": {"mode": "tight", "skew_tolerance_cycles": 2},
                     "voter": {"policy": "2oo3", "comparator": {"kind": "exact"}, "debounce_threshold": 3},
                     "clock": {"freq_hz": 210_000_000, "drift_ppm": 0}, "shared_clock": True,
                     "bus_trace_compare": True},
        "workload": {"frame_count": frames, "repetitions_per_frame": 1, "input_shape": [32], "arch": [32, 32, 16]},
        "faults": [
            fault(2, {"type": "weight_bit_flip", "layer": 0, "element_index": 77, "bit": 12}, 0.05),
            fault(2, {"type": "output_bit_flip", "element_index": 3, "bit": 9}, 0.04),
            fault(2, {"type": "stuck_output"}, 0.02),
            fault(2, {"type": "drop_output"}, 0.02),
            fault(2, {"type": "extra_delay", "ns": 50_000}, 0.03),
            fault(1, {"type": "output_bit_flip", "element_index": 5, "bit": 14}, 0.01),
        ],
    }


class TestBlocks:
    """Frames are drawn and inferred in blocks of `BLOCK_VALUES` values,
    frames times the widest layer plus the output digest, and a block's
    rounds run in chunks."""

    @staticmethod
    def _calls(raw):
        """The frame count of each `gen_frames` call and the round count of
        each `_run_chunk` call of a run of `raw`."""
        blocks, chunks = [], []
        gen_frames, run_chunk = experiment.gen_frames, experiment.ExperimentRunner._run_chunk

        def counted_frames(seed, frame_ids, shape):
            blocks.append(len(frame_ids))
            return gen_frames(seed, frame_ids, shape)

        def counted_chunk(self, first, lo, hi):
            chunks.append(hi - lo)
            return run_chunk(self, first, lo, hi)

        with mock.patch.object(experiment, "gen_frames", counted_frames), \
                mock.patch.object(experiment.ExperimentRunner, "_run_chunk", counted_chunk):
            run_experiment(config_from_dict(raw, env={}))
        return blocks, chunks

    def test_a_narrow_net_with_one_round_per_frame_runs_one_chunk(self):
        assert self._calls(tight_all_faults(1500)) == ([1500], [1500])

    def test_a_1024_wide_net_keeps_blocks_of_at_most_256_frames(self):
        raw = {"seed": 3, "topology": "gpu-duplex-loose",
               "workload": {"frame_count": 513, "repetitions_per_frame": 2, "input_shape": [1024],
                            "arch": [1024, 4]}}
        assert self._calls(raw) == ([255, 255, 3], [510, 510, 6])

    def test_a_deep_net_counts_one_output_digest(self):
        # 63 layers of width 4: a frame holds the widest layer's 4
        # accumulators and one output digest, so a block is 52428 frames
        raw = {"seed": 3, "topology": "gpu-duplex-loose",
               "workload": {"frame_count": 4000, "repetitions_per_frame": 1, "input_shape": [4], "arch": [4] * 64}}
        assert self._calls(raw) == ([4000], [4000])


A, B, C = (0, 5, 3), (0, 2000, 15), (0, 7, 1)


def wide_net_flips(topology):
    """A [1024, 4] net, 513 frames of two rounds (blocks of 255 frames) and
    the weight-bit flips A and B of replica 0 on frame 3, and of replica 1,
    A on frame 300 and C on frame 301, whose output replica 1 drops."""
    def flip(rid, at, frame_id):
        kind = {"type": "weight_bit_flip", "layer": at[0], "element_index": at[1], "bit": at[2]}
        return {"replica_id": rid, "kind": kind, "trigger": {"type": "on_frame", "frame_id": frame_id}}
    return {"seed": 3, "topology": topology,
            "workload": {"frame_count": 513, "repetitions_per_frame": 2, "input_shape": [1024],
                         "arch": [1024, 4]},
            "faults": [flip(0, A, 3), flip(0, B, 3), flip(1, A, 300), flip(1, C, 301),
                       {"replica_id": 1, "kind": {"type": "drop_output"},
                        "trigger": {"type": "on_frame", "frame_id": 301}}]}


def parameters(layers):
    """The arrays of the network `layers` as lists: equal exactly when
    every array is."""
    return [array.tolist() for layer in layers for array in layer]


class TestInferenceWork:
    """Per block, the clean weights infer the block once, and each weight-flip
    set infers exactly the distinct frames of the rounds it fired in."""

    @staticmethod
    def _infers(raw):
        """The parameters and the frame ids of each `infer` call of a run of
        `raw`, and a function from weight-bit flips to the parameters of the
        weights they leave (`parameters`)."""
        cfg = config_from_dict(raw, env={})
        wl = cfg.workload
        frames = gen_frames(cfg.seed, range(wl.frame_count), wl.input_shape)
        ids = {row.tobytes(): f for f, row in enumerate(frames)}
        calls = []
        infer = experiment.infer

        def counted_infer(layers, block, engine):
            calls.append((parameters(layers), [ids[row.tobytes()] for row in block]))
            return infer(layers, block, engine)

        with mock.patch.object(experiment, "infer", counted_infer):
            run_experiment(cfg)
        weights = gen_weights(derive_seed(cfg.seed, "weights"), wl.arch)
        return calls, lambda *flips: parameters(flip_weight_bits(weights, flips))

    def test_flip_sets_infer_the_frames_they_fired_on_once_per_block(self):
        # the flips of frame 301 never emit, so they infer nothing
        calls, params = self._infers(wide_net_flips("gpu-duplex-loose"))
        assert calls == [(params(), list(range(255))), (params(A, B), [3]),
                         (params(), list(range(255, 510))), (params(A), [300]),
                         (params(), [510, 511, 512])]

    def test_flip_sets_infer_in_the_order_of_their_fired_patterns(self):
        # flips a on frame 1, b on frame 2, a and b on frame 3: the patterns
        # of fired faults (1, 0, 0, 0), (0, 1, 0, 0) and (0, 0, 1, 1) infer
        # in ascending order, which numbers the flip sets 1, 2 and 3
        a, b = (0, 5, 3), (1, 2, 9)

        def flip(at, frame_id):
            kind = {"type": "weight_bit_flip", "layer": at[0], "element_index": at[1], "bit": at[2]}
            return {"replica_id": 0, "kind": kind, "trigger": {"type": "on_frame", "frame_id": frame_id}}
        raw = {"seed": 3, "topology": "gpu-duplex-loose",
               "workload": {"frame_count": 5, "repetitions_per_frame": 1, "input_shape": [4], "arch": [4, 4, 3]},
               "faults": [flip(a, 1), flip(b, 2), flip(a, 3), flip(b, 3)]}
        calls, params = self._infers(raw)
        assert calls == [(params(), list(range(5))), (params(a, b), [3]), (params(b), [2]), (params(a), [1])]

    def test_a_probable_flip_infers_the_emitted_frames_it_fired_on(self):
        raw = tight_all_faults(1500)
        calls, params = self._infers(raw)
        rounds = np.arange(1500)
        flipped, dropped = (trigger_fires(WithProbability(p), rounds, derive_seed(raw["seed"], f"fault.{s}"), 0)
                            for s, p in ((0, 0.05), (3, 0.02)))
        fired = np.flatnonzero(flipped & ~dropped).tolist()
        assert 40 < len(fired) < 100
        assert calls == [(params(), rounds.tolist()), (params((0, 77, 12)), fired)]



class TestParameterIds:
    """The bus compare numbers the layers of each distinct network once, when
    it first reads them (`replica.layer_ids`)."""

    @staticmethod
    def _ids(raw):
        """The network of each `layer_ids` call of a run of `raw`, the
        networks of the run's flip sets in index order, and the report."""
        calls = []
        layer_ids = experiment.layer_ids

        def counted_ids(layers, networks):
            calls.append(layers)
            return layer_ids(layers, networks)

        runner = experiment.ExperimentRunner(config_from_dict(raw, env={}))
        with mock.patch.object(experiment, "layer_ids", counted_ids):
            report = runner.run()
        return calls, [weights for _, weights in runner._flips.values()], report

    def test_a_loose_run_computes_none(self):
        calls, networks, _ = self._ids(wide_net_flips("gpu-duplex-loose"))
        assert calls == [] and len(networks) == 3

    def test_a_tight_run_computes_them_once_per_distinct_network(self):
        # the clean net and (A, B) in the first block, (A,) in the second
        calls, networks, report = self._ids(wide_net_flips("fpga-duplex-tight"))
        assert len(networks) == 3 and [id(c) for c in calls] == [id(n) for n in networks]
        assert report.bus["divergences"] == 4


class TestValueTables:
    def test_the_report_sorts_each_replica_with_samples_once(self):
        # replica 1 has failed, so it has no samples and no table; the
        # statistics of the others read the one table each
        raw = zero_jitter_duplex(frames=5, reps=2, replicas=3, policy="2oo3",
                                 extra_topology={"health": ["healthy", "failed", "healthy"]})
        tables = []
        value_table = profiling.value_table

        def counted_table(samples):
            tables.append(np.asarray(samples).tolist())
            return value_table(samples)

        with mock.patch.object(experiment, "value_table", counted_table), \
                mock.patch.object(profiling, "value_table", counted_table):
            report = run_experiment(config_from_dict(raw, env={}))
        assert tables == [report.replicas[0]["samples"].tolist(), report.replicas[2]["samples"].tolist()]
        assert [len(row["samples"]) for row in report.replicas] == [10, 0, 10]
        assert report.to_json_dict() == run_experiment(config_from_dict(raw, env={})).to_json_dict()


def int64_array(xs):
    return np.array(xs, dtype=np.int64)


def as_lists(node):
    """`node` with each NumPy array in it as a list."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: as_lists(v) for k, v in node.items()}
    if isinstance(node, list):
        return [as_lists(v) for v in node]
    return node


def assert_written_as_indent_dump(report):
    f = io.StringIO()
    write_report(report, f)
    assert f.getvalue() == json.dumps(as_lists(report), indent=2) + "\n"


int64s = st.integers(-(1 << 63), (1 << 63) - 1)
int64_arrays = st.lists(int64s, max_size=20).map(int64_array)
floats = st.floats() | st.sampled_from([5e-324, 1e16, -0.0, 0.1, 1e-7, math.inf])
scalars = st.none() | st.booleans() | int64s | floats | st.text(max_size=6)
numbers = (st.lists(int64s, max_size=20) | st.lists(floats, max_size=20) | st.lists(int64s | floats, max_size=20)
           | int64_arrays)
json_values = st.recursive(scalars | numbers, lambda inner: st.lists(inner, max_size=10)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=30)
replica_rows = st.fixed_dictionaries({
    "replica_id": st.integers(0, 7),
    "samples": int64_arrays,
    "stats": st.none() | st.dictionaries(st.sampled_from(["n", "min", "mean", "p99"]), int64s | floats | st.none()),
    "outliers": st.none() | st.fixed_dictionaries({
        "method": st.just("mad_modified_z"), "threshold": floats,
        "indices": st.lists(st.integers(0, 20), max_size=20), "scores": st.lists(floats, max_size=20)}),
    "histogram": st.lists(st.fixed_dictionaries({"lower_edge_ns": int64s | floats, "count": st.integers(0, 9)}),
                          max_size=12),
})
reports = st.fixed_dictionaries({"schema_version": st.just(1), "config": json_values,
                                 "replicas": st.lists(replica_rows, max_size=3), "skew_ns": json_values})


@given(reports)
@example({"schema_version": 1, "config": {}, "replicas": [], "skew_ns": None})
@example({"schema_version": 1, "config": [[1] * 9, [True] * 9], "skew_ns": [math.nan] + [1] * 9,
          "replicas": [{"replica_id": 0, "samples": int64_array([-(1 << 63), (1 << 63) - 1] * 5), "stats": None,
                        "outliers": {"scores": [5e-324, 1e16, -0.0] * 3}, "histogram": []}]})
@example({"schema_version": 1, "config": {}, "skew_ns": None,  # three slices, the last a short one
          "replicas": [{"replica_id": 0, "samples": int64_array(range(-4096, 4097)), "stats": None,
                        "outliers": None, "histogram": [{"lower_edge_ns": 0.5, "count": 1}] * 9}]})
@settings(max_examples=300, deadline=None, database=None)
def test_report_bytes_are_the_indent_dump(report):
    assert_written_as_indent_dump(report)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 4096, 4097, 8193])
def test_arrays_of_every_length_are_the_indent_dump(n):
    extremes = int64_array(([-(1 << 63), (1 << 63) - 1] * n)[:n])
    assert_written_as_indent_dump({"replicas": [{"replica_id": 0, "samples": int64_array(range(n))},
                                                {"replica_id": 1, "samples": extremes}],
                                   "nested": [[extremes, {"empty": int64_array([])}]]})


# strings that hold the JSON text of a long list's stand-in: as a value, a
# key and the end of a longer string, for the first stand-ins tried
@pytest.mark.parametrize("metadata", [
    {"note": "\0splice\0"}, {"\0splice\0": 1}, {"note": 'a"\0splice\0'},
    {"note": "\0splice0\0"}, {"\0splice0\0": 1}, {"note": 'a"\0splice0\0'},
    {"a": "\0splice0\0", "\0splice1\0": 'b"\0splice2\0', "c": ["\0splice3\0"] * 9},
])
def test_report_holding_the_splice_marker_is_the_indent_dump(metadata):
    assert_written_as_indent_dump({"config": {"metadata": metadata}, "samples": int64_array(range(9)),
                                   "more": [int64_array(range(10))]})
