"""One measured lockstepsim run, in a fresh single-threaded process.

    python3 bench_child.py --config CFG --out DIR --api memory|directory --mode setup|run|traced

`setup` stops after set-up; `run` times set-up and the run; `traced` runs
with the per-layer spans installed. The last stdout line is a JSON object
with the timings (and, when traced, the layer values). The report lands in
DIR/report.json either way: the `memory` API writes it after the timed
region so its outputs can be checked like the others.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

MASK64 = (1 << 64) - 1


def calibration_times(reps: int = 5) -> list:
    """Times of a fixed pure-Python loop: integer hashing, tuples, dicts and
    a small heap, the operations the simulator spends its time on. They show
    how fast the host runs Python right now, independent of the package
    under test and of how much the process has allocated (no GC runs)."""
    times = []
    gc.disable()
    for _ in range(reps):
        t = time.perf_counter()
        h = 0xCBF29CE484222325
        q = []
        for i in range(40_000):
            h = ((h ^ (i & 255)) * 0x100000001B3) & MASK64
            heapq.heappush(q, (h & 1023, i, {"i": i}))
            if len(q) > 8:
                heapq.heappop(q)
        times.append(time.perf_counter() - t)
    gc.enable()
    return times


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) if path.is_dir() else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--api", choices=("memory", "directory"), required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    clock = time.perf_counter

    # Set-up: package import, config load and runner construction.
    t_import = clock()
    ls = importlib.import_module("lockstepsim")
    import_s = clock() - t_import
    tracer = None
    if args.mode == "traced":
        import bench_spans
        tracer = bench_spans.install(bench_spans.Tracer())
    t_load = clock()
    cfg = ls.load_config(args.config)
    load_s = clock() - t_load
    ctor_s = 0.0
    if tracer is None:
        t_ctor = clock()
        ls.ExperimentRunner(cfg)
        ctor_s = clock() - t_ctor
    result = {
        "setup_s": import_s + load_s + ctor_s,
        "rounds": cfg.workload.frame_count * cfg.workload.repetitions_per_frame,
        "replicas": cfg.topology.replica_count,
    }
    calib = calibration_times()
    if args.mode == "setup":
        result["calib_s"] = statistics.median(calib)
        print(json.dumps(result))
        return 0

    t_run = clock()
    if args.api == "memory":
        report = ls.run_experiment(cfg)
    else:
        report = ls.run_to_directory(cfg, out)
    run_s = clock() - t_run
    calib += calibration_times()
    result.update(
        calib_s=statistics.median(calib),
        wall_s=load_s + run_s,
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        output_mb=_dir_bytes(out) / 1e6,
    )
    if tracer is not None:
        tracer.restore()
        result["layers"] = bench_spans.layer_values(tracer)
        result["absent"] = tracer.absent

    if args.api == "memory":
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as f:
            json.dump(report.to_json_dict(), f, indent=2)
            f.write("\n")
    # Cycle cost depends on the net's shape and the engine, not on values.
    wl = cfg.workload
    result["sim_cycles"] = ls.infer(ls.gen_weights(0, wl.arch), ls.gen_frame(0, 0, wl.input_shape),
                                    cfg.topology.engine)[1]
    import numpy
    result["numpy"] = numpy.__version__
    result["python"] = sys.version.split()[0]
    result["threads"] = threading.active_count()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
