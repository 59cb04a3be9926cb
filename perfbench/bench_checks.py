"""Output checks and the model fingerprint.

The checks re-derive what the report claims from the trace and test the
conservation laws every run must satisfy. The fingerprint collects the
simulated statistics; a change meant only to speed up the simulator must
leave it identical. The model is unvalidated: the repository holds no
measurements from real hardware, so no accuracy figure is computed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REPORT_FILENAME = "report.json"
TRACE_FILENAME = "trace.jsonl"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_report(report: dict, rounds: int) -> list:
    """Invariants the report must satisfy on its own."""
    errors = []
    verdicts = report.get("verdict_counts", {})
    if sum(verdicts.values()) != rounds:
        errors.append(f"verdicts sum to {sum(verdicts.values())}, expected {rounds} rounds")
    f = report.get("faults", {})
    if f.get("injected") != f.get("detected", 0) + f.get("masked_pass", 0) + f.get("corrupted_pass", 0):
        errors.append(f"fault summary does not conserve: {f}")
    for rep in report.get("replicas", []):
        n = len(rep["samples"])
        if n > rounds:
            errors.append(f"replica {rep['replica_id']} has {n} samples for {rounds} rounds")
        stats = rep.get("stats")
        if (stats["n"] if stats else 0) != n:
            errors.append(f"replica {rep['replica_id']}: stats.n disagrees with {n} samples")
    return errors


def check_trace(report: dict, trace_lines) -> list:
    """Trace-versus-report invariants over an iterable of JSON lines."""
    errors = []
    last = None
    completions = {}
    verdicts = {}
    for i, line in enumerate(trace_lines):
        rec = json.loads(line)
        key = (rec["t_ns"], rec["seq"])
        if last is not None and key <= last:
            errors.append(f"trace record {i}: (t_ns, seq) {key} does not follow {last}")
            break
        last = key
        kind = rec["kind"]
        if kind == "completion":
            completions.setdefault(rec["replica_id"], []).append(rec["turnaround_ns"])
        elif kind == "verdict":
            verdicts[rec["variant"]] = verdicts.get(rec["variant"], 0) + 1
    for rep in report.get("replicas", []):
        rid = rep["replica_id"]
        if completions.get(rid, []) != rep["samples"]:
            errors.append(
                f"replica {rid}: {len(completions.get(rid, []))} trace completions "
                f"do not match {len(rep['samples'])} report samples"
            )
    expected = {k: v for k, v in report.get("verdict_counts", {}).items() if v}
    if verdicts != expected:
        errors.append(f"trace verdicts {verdicts} differ from report {expected}")
    return errors


def inspect_run(run_dir, rounds: int, has_trace: bool, sim_cycles: int, check_trace_file: bool):
    """Check one run directory; returns (errors, fingerprint).

    The fingerprint holds the simulated statistics and the output digests.
    Reading the whole trace is the slow part, so callers that already know
    the trace digest of a checked run may skip it.
    """
    run_dir = Path(run_dir)
    report = json.loads((run_dir / REPORT_FILENAME).read_text())
    errors = check_report(report, rounds)
    if has_trace and check_trace_file:
        with open(run_dir / TRACE_FILENAME) as f:
            errors += check_trace(report, f)
    turnaround = {}
    for rep in report["replicas"]:
        st = rep.get("stats") or {}
        turnaround[str(rep["replica_id"])] = {"p50_ns": st.get("p50"), "p99_ns": st.get("p99")}
    fp = {
        "turnaround": turnaround,
        "sim_cycles_per_inference": sim_cycles,
        "verdict_counts": report["verdict_counts"],
        "faults": report["faults"],
        "bus": report["bus"],
        "safety_final": report["safety"]["final_state"],
        "report_sha256": sha256_file(run_dir / REPORT_FILENAME),
    }
    if has_trace:
        fp["trace_sha256"] = sha256_file(run_dir / TRACE_FILENAME)
    return errors, fp
