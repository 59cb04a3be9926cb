"""Experiment runner: the measurement protocol over a redundant topology.

Per frame, per repetition (a round): release one synthetic input through
the input barrier, run every healthy replica with its faults applied,
rendezvous on the completion times the checker observes, compare bus traces
under tight coupling, vote, step the safety switch, and record latency
samples. With a trace writer, every event is also written as one JSON text
line (the lines of trace.jsonl). Everything derives from the config seed;
two runs of the same config produce byte-identical traces and reports.

The report is built once, in the shape report.json holds: the counters
are the report's dicts, and `ExperimentReport`'s fields are the file's keys.

Frames are processed in blocks of `BLOCK_FRAMES`: each block is drawn,
inferred and digested at once (`replica.infer`), and a weight-flip set
re-infers the block when it first fires in it, on weights flipped once per
run. The rounds of a block run in chunks of at most `ROUND_CHUNK`, so
memory does not grow with the frame count.

A chunk's draws and times are arrays. Every random stream is
counter-addressed (`rng.draws`), so the feed and host jitter of each healthy
replica and the draws of each probabilistic fault trigger come out for the
whole chunk at once. Every round ends before the next input is released, so
a device is always idle when its kernel arrives: relative to the release, a
completion is the delivery time plus one host jitter draw, the compute time
on the replica's clock and the delays that fired. A drop fault masks the
output.

A round passes when no fault fired, at least `required_agreement` replicas
are healthy and the arrival times the checker sees lie within the
rendezvous window: every healthy replica then emits the clean output, the
rendezvous completes and the vote passes. Pass rounds are counted and
written from the arrays. Every other round is a scalar round: it runs on
the drawn times through `rendezvous`, the bus compare, `vote` and
`step_safety`, in round order, so those rules have one definition. Between
two scalar rounds, the run of pass rounds only resets the safety switch's
fault count (`step_safety` once) and leaves the clean output as each
replica's last one, for a later stuck fault. A round lasts from its release
to its record time, and the next release is its record time: releases are
a running sum of durations.

Trace records are totally ordered by (t_ns, seq). Each round takes seq in
this order: the input release; one delivery per healthy replica in replica
order; one completion per delivery, in (time, seq) order of the deliveries
(a dropped output takes its seq but writes no record); then, at the record
time, the rendezvous, any bus divergence, the verdict and the safety action.
Each kind of record has one template (`trace`). A run of pass rounds is
written `WRITE_ROUNDS` rounds at a time, built a kind at a time from
columns and ordered by one `lexsort` on (t_ns, seq); a scalar round writes
its own records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import trace
from .config import ExperimentConfig
from .coupling import (
    Complete,
    Tight,
    compare_bus_traces,
    estimate_ptp_offset,
    rendezvous,
    simulate_ptp_exchange,
)
from .errors import SimulationError
from .eventsim import cycles_to_time, sample_turnaround_overheads
from .faults import (
    VALUE_FAULTS,
    DropOutput,
    ExtraDelay,
    FaultEffects,
    apply_fault,
    flip_output_bits,
    flip_weight_bits,
    trigger_fires,
)
from .fixedpoint import FixedPointTensor, argmax_index, tensor_digest
from .profiling import detect_outliers, histogram, stats, write_histogram_csv
from .replica import HEALTHY, ReplicaOutput, gen_frames, gen_weights, infer
from .rng import Rng, derive_seed
from .voting import PASS, SafetySwitchState, Verdict, step_safety, vote

TRACE_FILENAME = "trace.jsonl"
REPORT_FILENAME = "report.json"

BLOCK_FRAMES = 256
# The rounds whose draws and times are one set of arrays: enough to amortize
# NumPy's per-call cost, few enough that the arrays stay small.
ROUND_CHUNK = 512
# A run of pass rounds is stepped and written in pieces of at most this many
# rounds, which caps the trace text held at once.
WRITE_ROUNDS = 64

# Simulated time stays below 2**62 ns (146 years), so int64 holds every time.
TIME_LIMIT_NS = 1 << 62

_PASSED = Verdict(PASS)


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

    `trace_writer`, if given, is called with the trace text in order, a
    run of whole lines per call; `run_to_directory` passes a file's `write`.
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
        self.healthy_ids = [rid for rid in range(n) if topo.health[rid] == HEALTHY]
        # Per healthy replica (a column of the chunk arrays): its jitter
        # models and stream seeds; feed jitter only under loose coupling.
        self._host = [(topo.host_jitter[rid], root.child(f"host.{rid}").seed) for rid in self.healthy_ids]
        self._feed = [] if isinstance(self.coupling, Tight) else [
            (topo.feed_jitter[rid], root.child(f"feed.{rid}").seed) for rid in self.healthy_ids]
        # (column, spec, stream seed) of each fault of a healthy replica; a
        # fault of another replica is never evaluated
        column = {rid: i for i, rid in enumerate(self.healthy_ids)}
        self._faults = [(column[rid], spec, root.child(f"fault.{i}").seed)
                        for i, (rid, spec) in enumerate(config.faults) if rid in column]
        self._value_faults = [[(s, spec) for s, (c, spec, _) in enumerate(self._faults)
                               if c == i and isinstance(spec.kind, VALUE_FAULTS)]
                              for i in range(len(self.healthy_ids))]
        # draws taken so far from each stream
        self._host_pos = [0] * len(self._host)
        self._feed_pos = [0] * len(self._feed)
        self._fault_pos = [0] * len(self._faults)

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

    # -- per-replica computation ---------------------------------------

    def _result(self, flips, row):
        """(output, bus trace, digest) of frame `row` of the block on the
        weights with the weight-bit `flips` applied."""
        key = tuple(flips)
        block = self._block.get(key)
        if block is None:
            weights = self._weights.get(key)
            if weights is None:
                weights = self._weights[key] = flip_weight_bits(self.weights, flips)
            outs, self._cycles, rows = infer(weights, self._frames, self.engine)
            block = self._block[key] = (outs, weights.params_digests, rows.tolist())
        outs, params, rows = block
        digests = tuple(rows[row])
        return FixedPointTensor((outs.shape[1],), outs[row]), (params, digests), digests[-1]

    def _compute(self, i, row, clean, fired):
        """(output, bus trace, digest) of healthy replica `i` with the value
        faults that `fired` (one flag per fault) applied."""
        effects = FaultEffects()
        for s, spec in self._value_faults[i]:
            if fired[s]:
                apply_fault(spec, effects)
        out, bus_trace, digest = clean
        if effects.weight_flips:
            out, bus_trace, digest = self._result(effects.weight_flips, row)
        if effects.output_flips:
            out = flip_output_bits(out, effects.output_flips)
            digest = tensor_digest(out)
        rid = self.healthy_ids[i]
        if effects.stuck and self.prev_output[rid] is not None:
            out = self.prev_output[rid]
            digest = tensor_digest(out)
        return out, bus_trace, digest

    # -- a chunk of rounds -----------------------------------------------

    def _jitter(self, streams, positions, n):
        """(n, columns) int64 array: n samples of each (model, seed) stream."""
        out = np.zeros((n, len(self.healthy_ids)), dtype=np.int64)
        for i, (model, seed) in enumerate(streams):
            out[:, i], positions[i] = sample_turnaround_overheads(model, seed, positions[i], n)
        return out

    def _run_chunk(self, first, lo, hi):
        """Rounds lo .. hi-1 of the block whose first frame is `first`."""
        reps = self.cfg.workload.repetitions_per_frame
        n = hi - lo
        rows = np.arange(lo, hi) // reps
        k = len(self.healthy_ids)

        # times relative to each round's release
        feed = self._jitter(self._feed, self._feed_pos, n)
        comp = feed + self._jitter(self._host, self._host_pos, n) + self._compute_ns
        emit = np.ones((n, k), dtype=bool)
        fired = np.zeros((n, len(self._faults)), dtype=bool)
        for s, (i, spec, seed) in enumerate(self._faults):
            fired[:, s], used = trigger_fires(spec.trigger, first + rows, seed, self._fault_pos[s])
            self._fault_pos[s] += used
            if isinstance(spec.kind, ExtraDelay):
                comp[:, i] += spec.kind.ns * fired[:, s]
            elif isinstance(spec.kind, DropOutput):
                emit[:, i] &= ~fired[:, s]
        bad = (feed < 0) | (comp < feed)
        if bad.any():
            j, i = np.argwhere(bad)[0].tolist()
            raise SimulationError(
                f"replica {self.healthy_ids[i]}, frame {first + rows[j]}: delivery at {feed[j, i]} ns "
                f"and completion at {comp[j, i]} ns after the release must not precede it or each other"
            )
        for i, rid in enumerate(self.healthy_ids):
            self.samples[rid].extend(comp[emit[:, i], i].tolist())
        arrival = comp + self._corr
        applied = fired.any(axis=1)
        passes = np.zeros(n, dtype=bool)
        if k >= self.topology.policy.required_agreement:
            spread = arrival.max(axis=1) - arrival.min(axis=1)
            passes = ~applied & (spread <= self._window_ns)
            n_pass = int(passes.sum())
            self.verdict_counts[PASS] += n_pass
            self.skews.extend(spread[passes].tolist())
            if self.topology.bus_trace_compare and isinstance(self.coupling, Tight) and k >= 2:
                self.bus["comparisons"] += n_pass
            columns = (rows, (lo + np.arange(n)) % reps, feed, comp, spread,
                           np.maximum(comp.max(axis=1), arrival.max(axis=1)))

        # the scalar rounds in order, each after the run of pass rounds before it
        done = 0
        for j in np.flatnonzero(~passes).tolist() + [n]:
            for a in range(done, j, WRITE_ROUNDS):
                self._pass_rounds(first, slice(a, min(a + WRITE_ROUNDS, j)), *columns)
            if j < n:
                self._run_round(first + int(rows[j]), (lo + j) % reps, int(rows[j]), feed[j].tolist(),
                                comp[j].tolist(), emit[j].tolist(), fired[j].tolist(), bool(applied[j]))
            done = j + 1

    def _pass_rounds(self, first, span, rows, reps, feed, comp, spread, durations):
        """Step time, seq, the safety switch and the replicas' last outputs
        over the pass rounds `span` of the chunk, and write their records.
        The arguments after `span` hold a column per chunk round."""
        k = len(self.healthy_ids)
        rows, durations = rows[span], durations[span]
        starts = self.now + np.cumsum(durations) - durations
        seqs = self.seq + (4 + 2 * k) * np.arange(len(rows))
        self.now = int(starts[-1] + durations[-1])
        self.seq += (4 + 2 * k) * len(rows)
        self.safety, action = step_safety(self.safety, _PASSED)
        clean = self._result((), int(rows[-1]))[0]
        for rid in self.healthy_ids:
            self.prev_output[rid] = clean
        if self._write is None:
            return

        self._write(trace.pass_rounds(
            list(map(trace.frame, (first + rows).tolist(), reps[span].tolist())), self.healthy_ids,
            starts, seqs, feed[span], comp[span], spread[span], durations,
            (self._cycles, [self._clean_digests[r] for r in rows.tolist()],
             [self._clean_classes[r] for r in rows.tolist()]),
            (self.safety.state, action, self.safety.consecutive_fault_count),
        ))

    # -- a scalar round -------------------------------------------------------

    def _run_round(self, frame_id, rep, row, feed, comp, emit, fired, applied):
        """One round through rendezvous, bus compare, vote and safety step.
        Per healthy replica: `feed` and `comp` are its delivery and
        completion times after the release, `emit` whether its output is
        emitted; `fired` flags each fault, `applied` is any(fired)."""
        release = self.now
        tracing = self._write is not None
        if tracing:
            fr = trace.frame(frame_id, rep)
            records = [(release, self.seq, trace.RELEASE.format(release, self.seq, fr))]
        self.seq += 1
        if not self.healthy_ids:
            if tracing:
                self._write(trace.in_order(records))
            self._finish_round(frame_id, rep, None, Verdict.degraded("no healthy replicas"),
                               divergence=None, deadline=release)
            return

        k = len(self.healthy_ids)
        seq = self.seq
        if tracing:
            for i, rid in enumerate(self.healthy_ids):
                t = release + feed[i]
                records.append((t, seq + i, trace.DELIVERY.format(t, seq + i, fr, rid, feed[i])))
        completion_seq = seq + k
        self.seq = completion_seq + k

        clean = self._result((), row)
        arrivals = []
        outputs = {}
        traces = {}
        # a stable sort by delivery time keeps replica order on ties: (time, seq) order
        for i in sorted(range(k), key=feed.__getitem__):
            if emit[i]:
                rid = self.healthy_ids[i]
                out, bus_trace, digest = self._compute(i, row, clean, fired)
                t = release + comp[i]
                arrivals.append((rid, t + self._corr[i]))
                outputs[rid] = ReplicaOutput(rid, out, digest)
                traces[rid] = bus_trace
                self.prev_output[rid] = out
                if tracing:
                    records.append((t, completion_seq, trace.COMPLETION.format(
                        t, completion_seq, fr, rid, comp[i], self._cycles, digest,
                        argmax_index(out))))
            completion_seq += 1
        self.now = release + max(comp)
        if tracing:
            self._write(trace.in_order(records))

        outcome = rendezvous(self.healthy_ids, arrivals, self._window_ns)
        if isinstance(outcome, Complete):
            deadline = outcome.present[-1][1]
        elif arrivals:
            deadline = min(t for _, t in arrivals) + self._window_ns
        else:
            deadline = release + self._window_ns

        divergence = None
        if self.topology.bus_trace_compare and isinstance(self.coupling, Tight):
            ids = sorted(traces)
            if len(ids) >= 2:
                self.bus["comparisons"] += 1
                for rid in ids[1:]:
                    index = compare_bus_traces(traces[ids[0]], traces[rid])
                    if index is not None:
                        divergence = (ids[0], rid, index)
                        break

        verdict = vote(list(outputs.values()), self.topology.policy, self.topology.comparator, outcome)
        self._finish_round(frame_id, rep, outcome, verdict, divergence, deadline)

        if applied:
            self.faults["injected"] += 1
            if verdict.variant != PASS:
                self.faults["detected"] += 1
            elif verdict.agreed.digest == clean[2]:
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
            # (template, fields) of each record, all at t_record in seq order
            fields = []
            if isinstance(outcome, Complete):
                fields.append((trace.COMPLETE, outcome.skew_ns))
            elif outcome is not None:
                fields.append((trace.TIMEOUT, trace.ids(outcome.present_ids), trace.ids(outcome.missing_ids)))
            if divergence is not None:
                fields.append((trace.DIVERGENCE, *divergence))
            fields.append((trace.VERDICT, verdict.variant, trace.verdict_fields(verdict)))
            fields.append((trace.SAFETY, new_state.state, action, new_state.consecutive_fault_count))
            fr = trace.frame(frame_id, rep)
            self._write("".join([template.format(t_record, self.seq + i, fr, *rest)
                                 for i, (template, *rest) in enumerate(fields)]))
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
                self._write(trace.PTP.format(self.now, self.seq, rid, est.offset_ns, est.path_delay_ns))
            self.seq += 1

    # -- top level --------------------------------------------------------

    def run(self) -> ExperimentReport:
        wl = self.cfg.workload
        if self.topology.ptp.enabled:
            self._sync_clocks()
        # what the checker adds to a completion time to get its arrival time
        self._corr = [self.clock_offsets[rid] - self.ptp_corrections[rid] for rid in self.healthy_ids]
        reps = wl.repetitions_per_frame
        for first in range(0, wl.frame_count, BLOCK_FRAMES):
            count = min(BLOCK_FRAMES, wl.frame_count - first)
            self._frames = gen_frames(self.cfg.seed, range(first, first + count), wl.input_shape)
            self._block = {}
            self._result((), 0)
            outs, _, rows = self._block[()]
            self._clean_digests = [r[-1] for r in rows]
            self._clean_classes = outs.argmax(axis=1).tolist()
            if first == 0:
                self._check_time_limit()
            for lo in range(0, count * reps, ROUND_CHUNK):
                self._run_chunk(first, lo, min(lo + ROUND_CHUNK, count * reps))
        return self._build_report()

    def _check_time_limit(self):
        """Set the compute time of each healthy replica, and refuse a run
        whose simulated time could reach `TIME_LIMIT_NS`."""
        compute = [cycles_to_time(self._cycles, self.topology.clocks[rid]) for rid in self.healthy_ids]
        delays = [0] * len(compute)
        for i, spec, _ in self._faults:
            if isinstance(spec.kind, ExtraDelay):
                delays[i] += abs(spec.kind.ns)
        per_round = self._window_ns + sum(
            host.bound_ns + (self._feed[i][0].bound_ns if self._feed else 0)
            + compute[i] + delays[i] + abs(self._corr[i])
            for i, (host, _) in enumerate(self._host)
        )
        wl = self.cfg.workload
        rounds = wl.frame_count * wl.repetitions_per_frame
        if rounds * per_round >= TIME_LIMIT_NS:
            raise SimulationError(
                f"simulated time could reach 2**62 ns: up to {per_round} ns per round over {rounds} rounds")
        self._compute_ns = np.array(compute, dtype=np.int64)

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


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment without a trace; `ExperimentRunner` takes a trace
    writer."""
    return ExperimentRunner(config).run()


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
