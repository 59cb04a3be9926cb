import json
from pathlib import Path

import pytest

from lockstepsim.cli import agreement_patterns, cli_main
from lockstepsim.config import SEED_ENV_VAR
from helpers import zero_jitter_duplex
from oracles import vote_oracle_exact

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


class TestRunCommand:
    def test_run_produces_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=5, reps=2))
        out_dir = tmp_path / "r1"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.jsonl").is_file()
        assert (out_dir / "report.json").is_file()
        assert (out_dir / "hist_replica0.csv").is_file()
        assert (out_dir / "hist_replica1.csv").is_file()
        captured = capsys.readouterr()
        assert "run complete" in captured.err
        assert captured.out == ""

    def test_run_without_config_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--out", "x"])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", "a", "--out", "b", "--warp-speed"])
        assert exc.value.code == 1

    def test_no_command_prints_usage(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_validation_errors_exit_one(self, tmp_path, capsys):
        raw = zero_jitter_duplex()
        raw["topology"]["replicas"] = 0
        cfg = write_config(tmp_path, raw)
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "replicas" in capsys.readouterr().err

    def test_negative_ptp_forward_delay_exit_one_before_any_output(self, tmp_path, capsys):
        raw = zero_jitter_duplex(extra_topology={
            "ptp": {"enabled": True, "link_delay_ns": 500, "asymmetry_ns": -600},
        })
        cfg = write_config(tmp_path, raw)
        out_dir = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "config.topology.ptp.asymmetry_ns: " in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_fail_on_safeoff_exit_two(self, tmp_path, capsys):
        raw = zero_jitter_duplex(frames=3, faults=[{
            "replica_id": 0,
            "kind": {"type": "output_bit_flip", "element_index": 0, "bit": 0},
            "trigger": {"type": "on_frame", "frame_id": 1},
        }])
        cfg = write_config(tmp_path, raw)
        code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--fail-on-safeoff"])
        assert code == 2
        captured = capsys.readouterr()
        assert "safety switch tripped" in captured.err
        assert "run complete" in captured.err
        assert captured.out == ""

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, zero_jitter_duplex(seed=1, frames=3))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "1"])
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "c"), "--seed", "2"])
        t = lambda d: (tmp_path / d / "trace.jsonl").read_bytes()
        assert t("a") == t("b")
        assert t("a") != t("c")

    def test_env_seed_lowest_priority(self, tmp_path, monkeypatch):
        raw = zero_jitter_duplex(frames=3)
        del raw["seed"]
        cfg = write_config(tmp_path, raw)
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        blob = json.loads((tmp_path / "a" / "report.json").read_text())
        assert blob["config"]["seed"] == 77


    def test_negative_seed_flag_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIG_DIR / "tight-baseline.json"),
                         "--out", str(out), "--seed", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config.seed: must be >= 0, got -1" in captured.err
        assert not out.exists()

    def test_seed_flag_past_64_bits_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIG_DIR / "tight-baseline.json"),
                         "--out", str(out), "--seed", str(2**64)])
        assert code == 1
        assert f"config.seed: must be <= {2**64 - 1}, got {2**64}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_env_seed_exit_one(self, tmp_path, capsys, monkeypatch):
        raw = zero_jitter_duplex(frames=3)
        del raw["seed"]
        cfg = write_config(tmp_path, raw)
        monkeypatch.setenv(SEED_ENV_VAR, "-5")
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        assert "config.seed: must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_out_is_an_existing_file_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=2))
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        assert cli_main(["run", "--config", str(cfg), "--out", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{taken}: ")
        assert taken.read_text() == "keep me"

    def test_out_under_a_file_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=2))
        out = tmp_path / "taken" / "run"
        (tmp_path / "taken").write_text("")
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{out}: ")


class TestCompareCommand:
    def test_compare_self_and_written_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=6, reps=2))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        out_json = tmp_path / "cmp.json"
        code = cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "a"),
                         "--out", str(out_json)])
        assert code == 0
        assert "replica" in capsys.readouterr().out
        blob = json.loads(out_json.read_text())
        assert not blob["any_distinguishable"]

    def test_compare_out_in_missing_directory_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=6, reps=2))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        out_json = tmp_path / "missing" / "cmp.json"
        capsys.readouterr()
        assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "a"), "--out", str(out_json)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{out_json}: ")

    @pytest.mark.parametrize("alpha", ["0", "-1", "inf", "2", "nan"])
    def test_compare_alpha_out_of_bounds_exit_one(self, tmp_path, capsys, alpha):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=6, reps=2))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        capsys.readouterr()
        assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "a"), "--alpha", alpha]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("alpha: must be within [1e-09, 0.5], got ")

    def test_compare_missing_report_exit_one(self, tmp_path, capsys):
        assert cli_main(["compare", str(tmp_path / "nope"), str(tmp_path / "nada")]) == 1
        assert "no report" in capsys.readouterr().err

    def test_compare_refusal_exit_one(self, tmp_path, capsys):
        tiny = write_config(tmp_path, zero_jitter_duplex(frames=1, reps=1), "tiny.json")
        cli_main(["run", "--config", str(tiny), "--out", str(tmp_path / "t")])
        assert cli_main(["compare", str(tmp_path / "t"), str(tmp_path / "t")]) == 1
        assert "refused" in capsys.readouterr().err

    def test_compare_report_not_json_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=6, reps=2))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        bad = tmp_path / "bad.json"
        bad.write_text('{"replicas": [')
        capsys.readouterr()
        assert cli_main(["compare", str(tmp_path / "a"), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: not valid JSON" in captured.err

    @pytest.mark.parametrize("text", [
        "[]",
        '{"replicas": [{"replica_id": 0, "samples": [1, "a", 2, 3]}]}',
        '{"replicas": [{"replica_id": 0, "samples": [1, 2, 3, 4], "outliers": {"indices": 5}}]}',
    ])
    def test_compare_report_of_wrong_shape_exit_one(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli_main(["compare", str(bad), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{bad}: not a report")


class TestVoteTableCommand:
    def test_patterns_canonical(self):
        assert list(agreement_patterns(2)) == [(0, 0), (0, 1)]
        assert len(list(agreement_patterns(3))) == 5  # Bell number B3

    def test_table_matches_brute_force_oracle(self, capsys):
        assert cli_main(["vote-table", "--policy", "2oo3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [l.split() for l in lines[2:]]
        assert len(rows) == 5
        for row in rows:
            pattern_txt, variant = row[0], row[1]
            labels = [ord(c) - ord("A") for c in pattern_txt]
            want_variant, _ = vote_oracle_exact(labels, 2, 3)
            assert variant == want_variant

    def test_duplex_table(self, capsys):
        assert cli_main(["vote-table", "--policy", "1oo2"]) == 0
        out = capsys.readouterr().out
        assert "AA      pass" in out.replace("  ", " ").replace("   ", " ") or "pass" in out
        lines = [l for l in out.splitlines() if l.strip().startswith("AB")]
        assert len(lines) == 1 and "mismatch" in lines[0]

    def test_bad_policy_exit_one(self, capsys):
        assert cli_main(["vote-table", "--policy", "nonsense"]) == 1


class TestStatsCommand:
    def test_stats_from_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=6, reps=2))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        code = cli_main(["stats", "--trace", str(tmp_path / "a" / "trace.jsonl")])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["0"]["n"] == 12
        assert blob["1"]["n"] == 12

    def test_stats_missing_file(self, tmp_path, capsys):
        assert cli_main(["stats", "--trace", str(tmp_path / "none.jsonl")]) == 1

    def test_stats_trace_line_not_json_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=2, reps=1))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        trace = tmp_path / "a" / "trace.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:3]) + "{not json\n" + "".join(lines[3:]))
        capsys.readouterr()
        assert cli_main(["stats", "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{trace}:4: not valid JSON" in captured.err

    @pytest.mark.parametrize("line, message", [
        ("5", "not a trace record (expected a JSON object)"),
        ('{"kind":"completion","replica_id":0}', "completion record needs integer replica_id and turnaround_ns"),
        ('{"kind":"completion","replica_id":0,"turnaround_ns":true}',
         "completion record needs integer replica_id and turnaround_ns"),
        ('{"kind":"completion","replica_id":false,"turnaround_ns":5}',
         "completion record needs integer replica_id and turnaround_ns"),
        ('{"kind":"completion","replica_id":0,"turnaround_ns":9223372036854775808}',
         "turnaround_ns 9223372036854775808 is outside the int64 range"),
        ('{"kind":"completion","replica_id":0,"turnaround_ns":-9223372036854775809}',
         "turnaround_ns -9223372036854775809 is outside the int64 range"),
    ])
    def test_stats_record_of_wrong_shape_exit_one(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, zero_jitter_duplex(frames=2, reps=1))
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        trace = tmp_path / "a" / "trace.jsonl"
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:3]) + line + "\n" + "".join(lines[3:]))
        capsys.readouterr()
        assert cli_main(["stats", "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{trace}:4: {message}\n"

    def test_stats_takes_turnarounds_at_the_int64_limits(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(
            f'{{"kind":"completion","replica_id":3,"turnaround_ns":{t}}}\n'
            for t in (-(1 << 63), 0, (1 << 63) - 1)))
        assert cli_main(["stats", "--trace", str(trace)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert (blob["3"]["n"], blob["3"]["min"], blob["3"]["max"]) == (3, -(1 << 63), (1 << 63) - 1)
