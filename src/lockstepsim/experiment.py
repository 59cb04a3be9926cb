"""Experiment runner: the measurement protocol over a redundant topology.

Per frame, per repetition: release one synthetic input through the input
barrier, run every healthy replica with its faults applied, rendezvous on
the completion times the checker observes, compare bus traces under tight
coupling, vote, step the safety switch, and record latency samples plus a
JSON Lines trace of every event. Everything derives from the config seed;
two runs of the same config produce byte-identical traces and reports.

The report is built once, in the shape report.json holds: the counters
are the report's dicts, and `ExperimentReport`'s fields are the file's keys.

Frames are processed in blocks of `BLOCK_FRAMES`: each block is drawn,
inferred and digested at once (`replica.infer`), and a weight-flip set
re-infers the block when it first fires in it, on weights flipped once per
run. Memory does not grow with the frame count.

Each round is computed directly, in order. Every round ends before the
next input is released, so a device is always idle when its kernel
arrives: a completion is the delivery time plus one host jitter draw, the
compute time on the replica's clock and any injected delay. Trace records
are totally ordered by (t_ns, seq). The runner hands out seq in one
counter, in this order per round: the input release; one delivery per
healthy replica in replica order; one completion per delivery, in
(time, seq) order of the deliveries (a dropped output takes its seq but
writes no record); then, at the record time, the rendezvous, any bus
divergence, the verdict and the safety action. Records are written from
per-kind templates that give exactly the bytes of
`json.dumps(record, separators=(",", ":"))`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .coupling import (
    Complete,
    Tight,
    compare_bus_traces,
    distribute_input,
    estimate_ptp_offset,
    rendezvous,
    simulate_ptp_exchange,
)
from .errors import ConfigError, NoHealthyReplicas, SimulationError
from .eventsim import cycles_to_time, sample_turnaround_overhead
from .faults import FaultEffects, apply_fault, flip_output_bits, flip_weight_bits
from .fixedpoint import FixedPointTensor, argmax_index, tensor_digest
from .profiling import detect_outliers, histogram, ks_statistic, stats, write_histogram_csv
from .replica import HEALTHY, ReplicaOutput, gen_frames, gen_weights, infer
from .rng import Rng, derive_seed
from .voting import PASS, SafetySwitchState, Verdict, step_safety, vote

TRACE_FILENAME = "trace.jsonl"
REPORT_FILENAME = "report.json"

BLOCK_FRAMES = 256


def _ids(ids) -> str:
    """JSON text of a list of ints, as json.dumps writes it compactly."""
    return "[" + ",".join(map(str, ids)) + "]"


@dataclass
class ExperimentReport:
    """The contents of report.json: the fields are its keys after
    `"schema_version": 1`, in file order, and every value is already JSON.

    config          the expanded config, `ExperimentConfig.to_json_dict()`
    replicas        one row per replica, in replica order: replica_id;
                    samples, the turnaround of each delivered output in
                    round order (ns); stats, `profiling.stats` of the samples
                    (ns), null with no samples; outliers,
                    `profiling.detect_outliers` (indices into samples), null
                    below 3 samples; histogram, `profiling.histogram` (lower
                    edges in ns), empty with no samples
    verdict_counts  rounds per verdict: pass, mismatch, timeout, degraded
    safety          final_state, and timeline: one entry per state change
                    with t_ns, frame_id, repetition, from and to
    faults          counts of rounds in which a fault fired: injected, and of
                    those detected (not a pass), masked_pass (the clean
                    output won) and corrupted_pass (another output won)
    skew_ns         n, min, mean and max of the rendezvous skew over the
                    complete rendezvous (ns); null when none completed
    bus             counts: comparisons (rounds with two or more outputs
                    under tight bus compare) and divergences
    ptp             one entry per replica with offset_ns and path_delay_ns
                    (ns); empty when PTP is off
    """

    config: dict
    replicas: list
    verdict_counts: dict
    safety: dict
    faults: dict
    skew_ns: object
    bus: dict
    ptp: list

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **vars(self)}


class ExperimentRunner:
    """One deterministic run of one experiment config.

    `trace_writer`, if given, is called with each trace record as one JSON
    text line, newline included.
    """

    def __init__(self, config: ExperimentConfig, trace_writer=None):
        self.cfg = config
        topo = config.topology
        self.topology = topo
        self.coupling = topo.coupling
        self.engine = topo.engine
        self._write = trace_writer
        self.now = 0
        self.seq = 0

        root = Rng(config.seed)
        self.weights = gen_weights(derive_seed(config.seed, "weights"), config.workload.arch)
        n = topo.replica_count
        self.host_pairs = []
        self.feed_pairs = []
        for rid in range(n):
            self.host_pairs.append((topo.host_jitter[rid], root.child(f"host.{rid}")))
            self.feed_pairs.append((topo.feed_jitter[rid], root.child(f"feed.{rid}")))
        self.replica_faults = {rid: [] for rid in range(n)}
        for i, (rid, spec) in enumerate(config.faults):
            self.replica_faults[rid].append((spec, root.child(f"fault.{i}")))

        self.healthy_ids = [rid for rid in range(n) if topo.health[rid] == HEALTHY]
        self.clock_offsets = list(topo.clock_offsets_ns)
        self.ptp_corrections = [0] * n
        self.prev_output = [None] * n
        self._weights = {(): self.weights}  # weight-bit flips -> WeightSet
        self._frames = None                 # the current block of frames
        self._block = {}                    # weight-bit flips -> results on it

        if isinstance(self.coupling, Tight):
            self._window_ns = max(
                cycles_to_time(self.coupling.skew_tolerance_cycles, topo.clocks[0]), 1
            )
        else:
            self._window_ns = self.coupling.rendezvous_window_ns

        self.samples = [[] for _ in range(n)]
        self.skews = []
        self.verdict_counts = {"pass": 0, "mismatch": 0, "timeout": 0, "degraded": 0}
        self.safety = SafetySwitchState(debounce_threshold=topo.debounce_threshold)
        self.safety_timeline = []
        self.faults = {"injected": 0, "detected": 0, "masked_pass": 0, "corrupted_pass": 0}
        self.bus = {"comparisons": 0, "divergences": 0}
        self.ptp_info = []

    # -- trace records ------------------------------------------------

    def _write_records(self, records):
        """Write (t_ns, seq, body) records in (t_ns, seq) order; `body` is
        the JSON text of every field after seq."""
        write = self._write
        for t, seq, body in sorted(records):
            write(f'{{"t_ns":{t},"seq":{seq},{body}}}\n')

    # -- per-replica computation ---------------------------------------

    def _result(self, flips, row):
        """(output, cycles, bus trace, digest, classification) of frame `row`
        of the block on the weights with the weight-bit `flips` applied."""
        key = tuple(flips)
        block = self._block.get(key)
        if block is None:
            weights = self._weights.get(key)
            if weights is None:
                weights = self._weights[key] = flip_weight_bits(self.weights, flips)
            outs, cycles, rows = infer(weights, self._frames, self.engine)
            block = self._block[key] = (outs, cycles, weights.params_digests, rows.tolist())
        outs, cycles, params, rows = block
        out = FixedPointTensor((outs.shape[1],), outs[row])
        digests = tuple(rows[row])
        return out, cycles, (params, digests), digests[-1], argmax_index(out)

    def _compute(self, rid, frame_id, row, clean):
        effects = FaultEffects()
        applied = False
        for spec, frng in self.replica_faults[rid]:
            applied |= apply_fault(spec, effects, frame_id, frng)
        out, cycles, trace, digest, classification = clean
        if effects.weight_flips:
            out, cycles, trace, digest, classification = self._result(effects.weight_flips, row)
        if effects.output_flips:
            out = flip_output_bits(out, effects.output_flips)
            digest = tensor_digest(out)
            classification = argmax_index(out)
        if effects.stuck and self.prev_output[rid] is not None:
            out = self.prev_output[rid]
            digest = tensor_digest(out)
            classification = argmax_index(out)
        return out, cycles, trace, digest, classification, effects, applied

    # -- round orchestration --------------------------------------------

    def _run_round(self, frame_id, rep, row, clean):
        release = self.now
        tracing = self._write is not None
        if tracing:
            # the fields that follow "kind" in every record of this round
            fr = f'"frame_id":{frame_id},"repetition":{rep}'
            records = [(release, self.seq, f'"kind":"input_release",{fr}')]
        self.seq += 1
        try:
            barrier = distribute_input(
                frame_id,
                release,
                self.healthy_ids,
                self.coupling,
                [self.feed_pairs[rid] for rid in self.healthy_ids],
            )
        except NoHealthyReplicas:
            if tracing:
                self._write_records(records)
            self._finish_round(frame_id, rep, None, Verdict.degraded("no healthy replicas"),
                               divergence=None, deadline=release)
            return

        deliveries = barrier.deliveries
        seq = self.seq
        if tracing:
            for i, (rid, t) in enumerate(deliveries):
                records.append((t, seq + i, f'"kind":"delivery",{fr},"replica_id":{rid},"skew_ns":{t - release}'))
        completion_seq = seq + len(deliveries)
        self.seq = completion_seq + len(deliveries)

        now = release
        arrivals = []
        outputs = {}
        any_applied = False
        # a stable sort by time keeps replica order on ties: (time, seq) order
        for rid, t_deliver in sorted(deliveries, key=lambda d: d[1]):
            out, cycles, trace, digest, classification, effects, applied = self._compute(
                rid, frame_id, row, clean)
            any_applied |= applied
            jitter, host_rng = self.host_pairs[rid]
            t = (t_deliver + sample_turnaround_overhead(jitter, host_rng)
                 + cycles_to_time(cycles, self.topology.clocks[rid]) + effects.extra_delay_ns)
            if not release <= t_deliver <= t:
                raise SimulationError(
                    f"replica {rid}, frame {frame_id}: delivery at {t_deliver} ns and completion "
                    f"at {t} ns must not precede the release at {release} ns or each other"
                )
            now = max(now, t)
            if not effects.drop:
                turnaround = t - release
                arrivals.append((rid, t + self.clock_offsets[rid] - self.ptp_corrections[rid]))
                outputs[rid] = ReplicaOutput(rid, frame_id, out, classification, digest, cycles, t, trace)
                self.samples[rid].append(turnaround)
                self.prev_output[rid] = out
                if tracing:
                    records.append((t, completion_seq, (
                        f'"kind":"completion",{fr},"replica_id":{rid},"turnaround_ns":{turnaround},'
                        f'"compute_cycles":{cycles},"digest":{digest},"classification":{classification}'
                    )))
            completion_seq += 1
        self.now = now
        if tracing:
            self._write_records(records)

        outcome = rendezvous(self.healthy_ids, arrivals, self._window_ns)
        if isinstance(outcome, Complete):
            deadline = outcome.present[-1][1]
        elif arrivals:
            deadline = min(t for _, t in arrivals) + self._window_ns
        else:
            deadline = release + self._window_ns

        divergence = None
        if self.topology.bus_trace_compare and isinstance(self.coupling, Tight):
            ids = sorted(outputs)
            if len(ids) >= 2:
                self.bus["comparisons"] += 1
                ref = outputs[ids[0]]
                for rid in ids[1:]:
                    div = compare_bus_traces(ref.trace, outputs[rid].trace)
                    if div is not None:
                        divergence = (ids[0], rid, div)
                        break

        present_outputs = [outputs[rid] for rid in sorted(outputs)]
        verdict = vote(present_outputs, self.topology.policy, self.topology.comparator, outcome)
        self._finish_round(frame_id, rep, outcome, verdict, divergence, deadline)

        if any_applied:
            self.faults["injected"] += 1
            if verdict.variant != PASS:
                self.faults["detected"] += 1
            elif verdict.agreed.digest == clean[3]:
                self.faults["masked_pass"] += 1
            else:
                self.faults["corrupted_pass"] += 1

    def _finish_round(self, frame_id, rep, outcome, verdict, divergence, deadline):
        t_record = max(deadline, self.now)
        self.now = t_record
        if isinstance(outcome, Complete):
            self.skews.append(outcome.skew_ns)
        if divergence is not None:
            self.bus["divergences"] += 1
        self.verdict_counts[verdict.variant] += 1
        new_state, action = step_safety(self.safety, verdict)

        if self._write is not None:
            fr = f'"frame_id":{frame_id},"repetition":{rep}'
            bodies = []
            if isinstance(outcome, Complete):
                bodies.append(f'"kind":"rendezvous",{fr},"outcome":"complete","skew_ns":{outcome.skew_ns}')
            elif outcome is not None:
                bodies.append(
                    f'"kind":"rendezvous",{fr},"outcome":"timeout","present_ids":{_ids(outcome.present_ids)},'
                    f'"missing_ids":{_ids(outcome.missing_ids)}'
                )
            if divergence is not None:
                rid_a, rid_b, div = divergence
                bodies.append(
                    f'"kind":"bus_divergence",{fr},"replica_a":{rid_a},"replica_b":{rid_b},'
                    f'"event_index":{div.event_index},"reason":{json.dumps(div.reason)}'
                )
            v = f'"kind":"verdict",{fr},"variant":"{verdict.variant}"'
            if verdict.variant == PASS:
                v += f',"agreeing_ids":{_ids(verdict.agreeing_ids)},"agreed_digest":{verdict.agreed.digest}'
            elif verdict.variant == "mismatch":
                v += ',"groups":[' + ",".join(_ids(g) for g in verdict.groups) + "]"
            elif verdict.variant == "timeout":
                v += f',"missing_ids":{_ids(verdict.missing_ids)}'
            else:
                v += f',"reason":{json.dumps(verdict.reason)}'
            bodies.append(v)
            bodies.append(
                f'"kind":"safety_action",{fr},"state":"{new_state.state}","action":"{action}",'
                f'"consecutive_faults":{new_state.consecutive_fault_count}'
            )
            self._write_records([(t_record, self.seq + i, body) for i, body in enumerate(bodies)])
        self.seq += 2 + (outcome is not None) + (divergence is not None)

        if new_state.state != self.safety.state:
            self.safety_timeline.append(
                {"t_ns": t_record, "frame_id": frame_id, "repetition": rep,
                 "from": self.safety.state, "to": new_state.state}
            )
        self.safety = new_state

    # -- clock sync ------------------------------------------------------

    def _sync_clocks(self):
        s = self.topology.ptp
        for rid in range(self.topology.replica_count):
            forward = s.link_delay_ns + s.asymmetry_ns
            exchange = simulate_ptp_exchange(
                self.now, self.clock_offsets[rid], forward, s.link_delay_ns,
                s.slave_turnaround_ns,
            )
            est = estimate_ptp_offset(exchange)
            self.ptp_corrections[rid] = est.offset_ns
            self.ptp_info.append({"replica_id": rid, "offset_ns": est.offset_ns,
                                  "path_delay_ns": est.path_delay_ns})
            if self._write is not None:
                self._write_records([(self.now, self.seq, (
                    f'"kind":"ptp","replica_id":{rid},"offset_ns":{est.offset_ns},'
                    f'"path_delay_ns":{est.path_delay_ns}'
                ))])
            self.seq += 1

    # -- top level --------------------------------------------------------

    def run(self) -> ExperimentReport:
        wl = self.cfg.workload
        if self.topology.ptp.enabled:
            self._sync_clocks()
        for first in range(0, wl.frame_count, BLOCK_FRAMES):
            frame_ids = range(first, min(first + BLOCK_FRAMES, wl.frame_count))
            self._frames = gen_frames(self.cfg.seed, frame_ids, wl.input_shape)
            self._block = {}
            for row, frame_id in enumerate(frame_ids):
                clean = self._result((), row)
                for rep in range(wl.repetitions_per_frame):
                    self._run_round(frame_id, rep, row, clean)
        return self._build_report()

    def _build_report(self) -> ExperimentReport:
        prof = self.cfg.profiler
        replicas = [
            {
                "replica_id": rid,
                "samples": xs,
                "stats": stats(xs) if xs else None,
                "outliers": detect_outliers(xs, prof.outlier_threshold) if len(xs) >= 3 else None,
                "histogram": histogram(xs, prof.bin_count),
            }
            for rid, xs in enumerate(self.samples)
        ]
        skew = None
        if self.skews:
            skew = {
                "n": len(self.skews),
                "min": min(self.skews),
                "mean": sum(self.skews) / len(self.skews),
                "max": max(self.skews),
            }
        return ExperimentReport(
            config=self.cfg.to_json_dict(),
            replicas=replicas,
            verdict_counts=self.verdict_counts,
            safety={"final_state": self.safety.state, "timeline": self.safety_timeline},
            faults=self.faults,
            skew_ns=skew,
            bus=self.bus,
            ptp=self.ptp_info,
        )


def run_experiment(config: ExperimentConfig, trace_writer=None) -> ExperimentReport:
    """Run one experiment; optionally stream trace records, each as a dict,
    to a callable."""
    if trace_writer is None:
        return ExperimentRunner(config).run()
    return ExperimentRunner(config, lambda line: trace_writer(json.loads(line))).run()


def run_to_directory(config: ExperimentConfig, out_dir) -> ExperimentReport:
    """Run one experiment and write trace.jsonl, report.json and one
    histogram CSV per replica into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / TRACE_FILENAME, "w") as tf:
        report = ExperimentRunner(config, tf.write).run()
    with open(out / REPORT_FILENAME, "w") as rf:
        json.dump(report.to_json_dict(), rf, indent=2)
        rf.write("\n")
    for row in report.replicas:
        with open(out / f"hist_replica{row['replica_id']}.csv", "w") as hf:
            write_histogram_csv(row["histogram"], hf)
    return report


def compare_runs(report_a: dict, report_b: dict, alpha: float = 0.01) -> dict:
    """Kolmogorov-Smirnov comparison of two runs, per replica pairing, from
    two report.json dicts (`ExperimentReport.to_json_dict()` gives one).

    Refuses (ConfigError) when a paired replica has fewer than 4 samples
    on either side.
    """
    reps_a = {r["replica_id"]: r for r in report_a.get("replicas", [])}
    reps_b = {r["replica_id"]: r for r in report_b.get("replicas", [])}
    common = sorted(set(reps_a) & set(reps_b))
    pairs = [rid for rid in common if reps_a[rid]["samples"] or reps_b[rid]["samples"]]
    if not pairs:
        raise ConfigError(["comparison refused: no replica with latency samples in both runs"])
    rows = []
    for rid in pairs:
        xa = reps_a[rid]["samples"]
        xb = reps_b[rid]["samples"]
        if len(xa) < 4 or len(xb) < 4:
            raise ConfigError([
                f"comparison refused: replica {rid} has {len(xa)} vs {len(xb)} samples; "
                "need at least 4 on each side"
            ])
        rows.append(
            {
                "replica_id": rid,
                "ks": ks_statistic(xa, xb, alpha),
                "a": _stats_summary(reps_a[rid]),
                "b": _stats_summary(reps_b[rid]),
            }
        )
    return {
        "alpha": alpha,
        "replicas": rows,
        "any_distinguishable": any(r["ks"]["distinguishable"] for r in rows),
    }


def _stats_summary(rep_entry) -> dict:
    st = rep_entry.get("stats") or {}
    out = rep_entry.get("outliers") or {}
    return {
        "n": st.get("n", 0),
        "mean": st.get("mean"),
        "p99": st.get("p99"),
        "excess_kurtosis": st.get("excess_kurtosis"),
        "outlier_count": len(out.get("indices", [])),
    }


def render_comparison_table(comparison: dict) -> str:
    """Side-by-side text table for a compare_runs result."""
    header = (
        f"{'replica':>7} {'D':>10} {'critical':>10} {'distinct':>8} "
        f"{'mean_a':>12} {'mean_b':>12} {'p99_a':>10} {'p99_b':>10} "
        f"{'kurt_a':>10} {'kurt_b':>10} {'outl_a':>6} {'outl_b':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in comparison["replicas"]:
        ks = row["ks"]
        a, b = row["a"], row["b"]

        def fmt(v, spec):
            return format(v, spec) if isinstance(v, (int, float)) else "-"

        lines.append(
            f"{row['replica_id']:>7} {ks['d']:>10.6f} {ks['critical_value']:>10.6f} "
            f"{str(ks['distinguishable']):>8} "
            f"{fmt(a['mean'], '12.1f')} {fmt(b['mean'], '12.1f')} "
            f"{fmt(a['p99'], '10')} {fmt(b['p99'], '10')} "
            f"{fmt(a['excess_kurtosis'], '10.3f')} {fmt(b['excess_kurtosis'], '10.3f')} "
            f"{a['outlier_count']:>6} {b['outlier_count']:>6}"
        )
    return "\n".join(lines)
