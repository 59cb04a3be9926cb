"""Tests of the benchmark itself: configs, span arithmetic, output checks, doc."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_spans
import lockstepsim as ls
import run as bench_run
from bench_checks import check_report, check_trace, inspect_run, sha256_file
from bench_workloads import WORKLOADS, make_config, workload_properties

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def _tiny(workload, seed=0, frames=30, reps=None):
    cfg = make_config(workload, seed)
    cfg["workload"]["frame_count"] = frames
    if reps is not None:
        cfg["workload"]["repetitions_per_frame"] = reps
    return cfg


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 987654321])
def test_generated_configs_pass_load_config(tmp_path, workload, seed):
    raw = make_config(workload, seed)
    assert make_config(workload, seed) == raw
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = ls.load_config(path)
    props = workload_properties(raw)
    assert cfg.workload.frame_count * cfg.workload.repetitions_per_frame == props["rounds"]
    expected_share = 0.0 if workload == "tight-2oo3-faults" else 0.99
    assert props["frame_repeat_share"] == pytest.approx(expected_share)


def test_loose_workloads_share_one_config():
    assert make_config("loose-untraced", 5) == make_config("loose-traced", 5)
    assert make_config("loose-untraced", 5) != make_config("loose-untraced", 6)


class _ManualClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_span_self_time_arithmetic_with_manual_clock():
    clock = _ManualClock()
    tr = bench_spans.Tracer(clock=clock)

    def inner():
        clock.now += 3

    def outer():
        clock.now += 5
        w_inner()
        clock.now += 2
        w_inner()

    w_inner = tr.wrap(inner, "inner")
    w_outer = tr.wrap(outer, "outer")
    w_outer()
    w_inner()
    o, i = tr.spans["outer"], tr.spans["inner"]
    assert (o.calls, o.busy_ns, o.self_ns) == (1, 13, 7)
    assert (i.calls, i.busy_ns, i.self_ns) == (3, 9, 9)
    assert tr.top_level_ns == 16 == o.self_ns + i.self_ns


def test_span_recursion_counts_busy_once():
    clock = _ManualClock()
    tr = bench_spans.Tracer(clock=clock)

    def rec(n):
        clock.now += 1
        if n:
            w(n - 1)

    w = tr.wrap(rec, "rec")
    w(2)
    s = tr.spans["rec"]
    assert (s.calls, s.busy_ns, s.self_ns) == (3, 3, 3)


def test_spans_on_tiny_workload_sum_and_keep_outputs(tmp_path):
    cfg = ls.config_from_dict(_tiny("tight-2oo3-faults", frames=40))
    ls.run_to_directory(cfg, tmp_path / "plain")
    tr = bench_spans.install(bench_spans.Tracer())
    try:
        ls.run_to_directory(cfg, tmp_path / "traced")
    finally:
        tr.restore()
    assert tr.absent == []
    assert sum(s.self_ns for s in tr.spans.values()) == tr.top_level_ns
    for name, s in tr.spans.items():
        assert 0 <= s.self_ns <= s.busy_ns, name
    values = bench_spans.layer_values(tr)
    assert values["voting.vote.calls"] == 40
    assert values["coupling.compare_bus_traces.calls"] > 0
    assert values["faults.apply_fault.calls"] == 40 * 6
    assert values["experiment.round.samples"] == 39
    assert values["experiment.trace_encode.calls"] > 0
    for fname in ("report.json", "trace.jsonl"):
        assert sha256_file(tmp_path / "plain" / fname) == sha256_file(tmp_path / "traced" / fname)
    # restore() put every original back
    assert ls.experiment.infer is ls.replica.infer
    assert not hasattr(ls.replica.infer, "__wrapped__")


def test_missing_targets_are_reported_absent():
    tr = bench_spans.Tracer()
    assert not tr.patch("replica", "no_such_function", "replica.gone")
    assert not tr.patch("no_such_module", "f", "nowhere.f")
    assert not tr.patch("eventsim", "NoSuchClass.method", "eventsim.gone")
    assert tr.absent == ["replica.gone", "nowhere.f", "eventsim.gone"]
    values = bench_spans.layer_values(tr)
    assert values["replica.infer.calls"] == 0


def test_result_hook_on_unexpected_shape_is_dropped():
    tr = bench_spans.Tracer()
    w = tr.wrap(lambda: object(), "f", on_result=bench_spans._kernel_queued)
    w()
    w()
    assert tr.spans["f"].calls == 2
    assert tr.absent == ["f (result hook)"]


def test_output_check_flags_doctored_report(tmp_path):
    cfg = ls.config_from_dict(_tiny("loose-traced", frames=4, reps=5))
    ls.run_to_directory(cfg, tmp_path)
    errors, fp = inspect_run(tmp_path, 20, True, 0, check_trace_file=True)
    assert errors == []
    report = json.loads((tmp_path / "report.json").read_text())

    doctored = json.loads(json.dumps(report))
    doctored["verdict_counts"]["pass"] -= 1
    doctored["verdict_counts"]["mismatch"] += 1
    with open(tmp_path / "trace.jsonl") as f:
        assert any("verdicts" in e for e in check_trace(doctored, f))

    doctored = json.loads(json.dumps(report))
    doctored["replicas"][0]["samples"][0] += 1
    with open(tmp_path / "trace.jsonl") as f:
        assert any("completions" in e for e in check_trace(doctored, f))

    doctored = json.loads(json.dumps(report))
    doctored["faults"]["injected"] += 1
    assert any("conserve" in e for e in check_report(doctored, 20))
    assert any("expected 21 rounds" in e for e in check_report(report, 21))

    (tmp_path / "report.json").write_text(json.dumps(doctored, indent=2) + "\n")
    errors, fp2 = inspect_run(tmp_path, 20, True, 0, check_trace_file=True)
    assert errors and fp2["report_sha256"] != fp["report_sha256"]


def test_output_check_flags_out_of_order_trace(tmp_path):
    cfg = ls.config_from_dict(_tiny("loose-traced", frames=2, reps=3))
    ls.run_to_directory(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert check_trace(report, lines) == []
    lines[3], lines[4] = lines[4], lines[3]
    assert any("does not follow" in e for e in check_trace(report, lines))


def test_benchmark_json_matches_the_code():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        bench_spans.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_doc_lists_every_metric_and_workload():
    doc = (HERE / "README.md").read_text()
    bench = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [name for name, _unit in bench_run.REPORTED_ONLY]
    rows = {line.split("|")[1].strip().strip("`"): line for line in doc.splitlines()
            if line.startswith("| `")}
    for name in names:
        assert name in rows, name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert f"| {m['unit']} |" in rows[m["name"]], m["name"]
    for w in WORKLOADS:
        assert f"| `{w}` |" in doc


def test_command_fails_without_a_checkout(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loose-untraced", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / bench_run.WORK_DIR).exists()
