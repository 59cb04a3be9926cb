"""lockstepsim benchmark: host cost of the simulator on generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each measured run is a fresh single-threaded
child process (bench_child.py), one at a time. `--trace 0` repeats runs for
about S seconds (at least MIN_RUNS) and reports the medians of the
end-to-end metrics; `--trace 1` makes one untraced and one span-traced run
and reports the per-layer metrics. Every run's outputs are checked; the
last stdout line is the JSON result, and the exit code is 1 when a check
failed. End-to-end timings are host time scaled toward a reference host
speed (see scaled()); per-layer timings are raw host time. The model is
unvalidated: the repository holds no reference measurements from hardware,
so no accuracy figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_checks import inspect_run
from bench_spans import PER_LAYER
from bench_workloads import WORKLOADS, make_config, workload_properties

HERE = Path(__file__).resolve().parent

WORK_DIR = ".perfbench_out"
# Host times are scaled toward a reference host on which the calibration
# loop in bench_child.py takes REFERENCE_CALIB_S; see scaled(). The
# workloads slow down less than the loop does when the host is loaded: the
# least-squares slope of log run time on log calibration time was 0.4-0.8
# over about 600 runs of the three workloads, so a full correction
# (exponent 1) would add noise.
REFERENCE_CALIB_S = 0.025
CALIB_EXPONENT = 0.7
MIN_RUNS = 3
MIN_SETUP_SAMPLES = 9
# Stop starting runs past HARD_LIMIT_S, and kill a child still running at
# DEADLINE_S, so the command ends within 180 s whatever the children do.
HARD_LIMIT_S = 120.0
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed with the end-to-end metrics but kept out of the result: both can
# be exactly zero (no files on loose-untraced; no failures), and the result
# carries the failure count as `failed` / `attempted`.
REPORTED_ONLY = (("output_mb", "MB"), ("error_rate", "ratio"))


def scaled(seconds: float, calib_s: float) -> float:
    """Host time scaled to the reference host's speed."""
    return seconds * (REFERENCE_CALIB_S / calib_s) ** CALIB_EXPONENT


class WorkloadRuns:
    """Child runs of one workload, with their checks."""

    def __init__(self, root: Path, work: Path, workload: str, config: dict):
        self.workload = WORKLOADS[workload]
        self.has_trace = self.workload.api == "directory"
        self.rounds = workload_properties(config)["rounds"]
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None       # fingerprint of the first checked run
        self.info = {}              # versions and thread count reported by a child
        self._count = 0
        self._deadline = time.perf_counter() + DEADLINE_S

    def _fail(self, msg):
        self.failed += 1
        self.errors.append(msg)
        return None

    def child(self, mode: str):
        """Start one child and wait for it; returns its result or None."""
        self._count += 1
        self.attempted += 1
        out = self.work / f"run{self._count}"
        cmd = [sys.executable, str(HERE / "bench_child.py"), "--config", str(self.config_path),
               "--out", str(out), "--api", self.workload.api, "--mode", mode]
        timeout = max(self._deadline - time.perf_counter(), 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} run killed after {timeout:.0f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            return self._fail(f"{mode} run exited {proc.returncode}: " + " | ".join(tail))
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(f"{mode} run printed no result")
        res["out"] = out
        return res

    def run(self, mode: str):
        """One workload run plus its output checks; the outputs are removed after."""
        res = self.child(mode)
        if res is None:
            return None
        try:
            errors, fp = inspect_run(res["out"], self.rounds, self.has_trace, res["sim_cycles"],
                                     check_trace_file=self.reference is None)
        except (OSError, ValueError, KeyError, TypeError) as e:
            errors, fp = [f"outputs unreadable: {e!r}"], None
        finally:
            shutil.rmtree(res["out"], ignore_errors=True)
        if not errors:
            if self.reference is None:
                self.reference = fp
            elif fp != self.reference:
                errors.append(f"fingerprint of {mode} run differs from the first run: {fp}")
        if errors:
            return self._fail(f"{mode} run: " + "; ".join(errors))
        self.info = {k: res.get(k) for k in ("python", "numpy", "threads", "replicas")}
        return res


def measure_end_to_end(s: WorkloadRuns, seconds: float):
    """End-to-end values and the samples behind them."""
    s.child("setup")    # warm-up: byte-compiles the package and fills the page cache
    start = time.perf_counter()
    runs = []
    while True:
        t = time.perf_counter()
        res = s.run("run")
        if res is None:
            break
        runs.append(res)
        now = time.perf_counter()
        if len(runs) >= MIN_RUNS and now + (now - t) > start + seconds:
            break
        if now - start > HARD_LIMIT_S:
            break
    setups = list(runs)
    while not s.errors and len(setups) < MIN_SETUP_SAMPLES:
        res = s.child("setup")
        if res is not None:
            setups.append(res)
    if not runs:
        return {}, None
    med = statistics.median
    values = {
        "wall_s": med(scaled(r["wall_s"], r["calib_s"]) for r in runs),
        "setup_s": med(scaled(r["setup_s"], r["calib_s"]) for r in setups),
        "rounds_per_s": med(r["rounds"] / scaled(r["run_s"], r["calib_s"]) for r in runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "output_mb": med(r["output_mb"] for r in runs),
    }
    samples = {
        "runs": len(runs), "setups": len(setups),
        "calib_s": [r["calib_s"] for r in runs],
        "raw_wall_s": [r["wall_s"] for r in runs],
        "raw_median": {"wall_s": med(r["wall_s"] for r in runs),
                       "setup_s": med(r["setup_s"] for r in setups),
                       "rounds_per_s": med(r["rounds"] / r["run_s"] for r in runs)},
    }
    return values, samples


def measure_layers(s: WorkloadRuns):
    """Per-layer values and the spans found absent."""
    base = s.run("run")         # untraced: reference outputs and wall time
    traced = s.run("traced") if base is not None else None
    if traced is None:
        return {}, None
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = (scaled(traced["wall_s"], traced["calib_s"])
                                      / scaled(base["wall_s"], base["calib_s"]))
    return values, traced["absent"]


def _src_loc(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "lockstepsim" / "__init__.py").is_file():
        print(f"perfbench: no src/lockstepsim under {root}; run from the repository root",
              file=sys.stderr)
        return 2

    config = make_config(args.workload, args.seed)
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as work:
            s = WorkloadRuns(root, Path(work), args.workload, config)
            if args.trace:
                values, absent = measure_layers(s)
                samples = None
            else:
                values, samples = measure_end_to_end(s, args.seconds)
                absent = None
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass

    correct = not s.errors and bool(values)
    props = workload_properties(config)
    props["replicas"] = s.info.get("replicas")
    if s.reference is not None:
        props["fault_round_share"] = s.reference["faults"]["injected"] / props["rounds"]
    environment = {
        "workload": args.workload,
        "why": s.workload.why,
        "seed": args.seed,
        "trace": bool(args.trace),
        "properties": props,
        "config": config,
        "src_loc": _src_loc(root),
        "git_commit": _git_commit(root),
        "python": s.info.get("python"),
        "numpy": s.info.get("numpy"),
        "child_threads": s.info.get("threads"),
        "nproc": os.cpu_count(),
        "samples": samples,
        "absent_spans": absent,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{s.attempted} run(s) attempted, {s.failed} failed")
    for msg in s.errors:
        print(f"  CHECK FAILED: {msg}")
    print("  model: unvalidated (no reference measurements from hardware); no error figure")
    if s.reference is not None:
        print("  fingerprint: " + json.dumps(s.reference, sort_keys=True))
    print("  environment: " + json.dumps(environment, sort_keys=True))

    table = END_TO_END if not args.trace else PER_LAYER
    metrics = {}
    if values:
        for name, unit, _better in table:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<36} {_fmt(values[name]):>14} {unit}")
    if not args.trace:
        values["error_rate"] = s.failed / s.attempted
        for name, unit in REPORTED_ONLY:
            if name in values:
                print(f"  {name:<36} {_fmt(values[name]):>14} {unit}")
    print(json.dumps({"correct": correct, "attempted": s.attempted, "failed": s.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
