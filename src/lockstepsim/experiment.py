"""Experiment runner: the measurement protocol over a redundant topology.

Per frame, per repetition (a round): release one synthetic input to every
healthy replica, run each replica with its faults applied, rendezvous on
the completion times the checker observes, compare bus traces under tight
coupling, vote, step the safety switch, and record latency samples. With a
trace writer, the run is also written as JSON lines in `bytes` (trace.jsonl,
see `trace`): a header, the PTP estimates, and per round one line per emitted
output, at its completion time, and one for the verdict. Everything derives
from the config seed; two runs of the same config produce byte-identical
traces and reports.

The report is built once, in the shape report.json holds: the counters
are the report's dicts, and `ExperimentReport`'s fields are the file's keys.

Frames are processed in blocks of `BLOCK_VALUES` values, the block's
frames times the widest layer of the net plus its output digest: 255
frames of a 1024-wide net, 7943 of a [32, 32, 16] one. Each block is
drawn, inferred and digested at once (`replica.infer`). A weight-flip set
infers only the distinct frames of the rounds it fired in, a chunk and a
replica at a time, on weights flipped once per run. The rounds of a block
run in chunks of at most `ROUND_CHUNK`, so a narrow net with one round per
frame runs thousands of rounds per chunk, and memory does not grow with the
frame count: a chunk's arrays hold about 100 bytes per round, and 200 to 400
with the trace's columns (the deliveries under feed jitter, a classification
per frame) and what `trace.rounds` lays out per chunk.

Every round of a chunk is decided from arrays with one row per round and
one column per healthy replica. Every random draw is addressed by the run's
index of its round (`rng.draws_at`), so the feed and host jitter of each
replica and the draws of each probabilistic fault trigger come out for the
whole chunk at once, the same however the rounds are cut into chunks, and
no stream state passes from one chunk to the next.
Every round ends before the next input is released, so a device is always
idle when its kernel arrives: relative to the release, a completion is the
delivery time plus the round's host jitter sample, the compute time on the replica's
clock and the delays that fired. A drop fault masks the output. Then:

- outcomes: the rendezvous (`coupling.rendezvous_rounds`) and each round's
  record time, the later of the checker's deadline and the last completion,
  dropped outputs included. A round lasts from its release to its record
  time, and the next release is its record time: releases are a running
  sum of durations.
- values: each output's digest, from the block results of the weight flips
  that fired, then the output flips, then a stuck fault's forward fill of
  the replica's last emitted output, carried across chunks. Only the rounds
  in which a value fault fired are grouped (`voting.agreement_labels`); in
  the others every output is the clean one. Bus traces follow the weight
  flips alone, so only rounds in which one fired are compared, each
  output by the per-layer parameter ids of the weights it ran on
  (`replica.layer_ids`, `coupling.compare_bus_traces`).
- state: the verdicts (`voting.vote_rounds`) and the safety switch
  (`voting.safety_scan`), whose state is the consecutive fault count
  carried across chunks: SafeOff once it reaches the debounce threshold.

Each chunk is decided, counted and written in three steps (`run`):
`_run_chunk` decides it and returns its columns, one entry per round;
`tally` folds them into the report's counters; with a trace writer,
`trace.rounds` writes them. The trace format is `trace`'s alone. The
runner writes the header (`trace.header`, seq 0) and the PTP records
(`trace.ptp`) before the first round, and keeps only the running seq, the
index of the next line. `run_to_directory` opens trace.jsonl in binary mode.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import count as naturals
from pathlib import Path

import numpy as np

from . import trace
from .config import ExperimentConfig
from .coupling import (
    Tight,
    compare_bus_traces,
    estimate_ptp_offset,
    rendezvous_rounds,
    simulate_ptp_exchange,
)
from .errors import SimulationError
from .eventsim import JitterModel, cycles_to_time, sample_turnaround_overheads
from .faults import (
    VALUE_FAULTS,
    DropOutput,
    ExtraDelay,
    OutputBitFlip,
    StuckOutput,
    WeightBitFlip,
    flip_output_bits,
    flip_weight_bits,
    trigger_fires,
)
from .fixedpoint import tensor_digests
from .profiling import detect_outliers, histogram, stats, value_table, write_histogram_csv
from .record import Record
from .replica import HEALTHY, compute_cycles, gen_frames, gen_weights, infer, layer_ids
from .rng import derive_seed
from .voting import (
    ACTIONS,
    DEGRADED,
    ENTER_SAFE_OFF,
    OPERATIONAL,
    PASS,
    SAFE_OFF,
    VERDICTS,
    agreement_labels,
    safety_scan,
    vote_rounds,
)

TRACE_FILENAME = "trace.jsonl"
REPORT_FILENAME = "report.json"

# A block's frames times the 64-bit values each frame holds at once: the
# widest layer's accumulators and its output digest. A block stays near
# 2 MB whatever the frame count (255 frames of a net at
# `replica.MAX_LAYER_WIDTH`); a narrow net runs thousands of frames per
# block.
BLOCK_VALUES = 1 << 18
# The rounds whose draws and times are one set of arrays: enough to amortize
# NumPy's per-call cost, few enough that the arrays stay small.
ROUND_CHUNK = 4096

# Simulated time stays below 2**62 ns (146 years), so int64 holds every time.
TIME_LIMIT_NS = 1 << 62

_PASS, _DEGRADED, _ENTER = VERDICTS.index(PASS), VERDICTS.index(DEGRADED), ACTIONS.index(ENTER_SAFE_OFF)
_EMPTY = np.zeros(0, dtype=np.int64)


class ExperimentReport(Record):
    """The contents of report.json: the fields are its keys after
    `"schema_version": 1`, in file order. Every value is already JSON but
    the samples and the outliers' indices and scores, NumPy arrays in
    memory and lists in `to_json_dict()` and in the file.

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

    def _contents(self) -> dict:
        """report.json's object, its arrays still arrays."""
        return {"schema_version": 1, **vars(self)}

    def to_json_dict(self) -> dict:
        return _with_arrays(self._contents(), np.ndarray.tolist)


class ExperimentRunner:
    """One deterministic run of one experiment config.

    `trace_writer`, if given, gets the trace as `bytes` in order, a run of
    whole lines per call; `run_to_directory` passes a binary file's `write`.
    """

    def __init__(self, config: ExperimentConfig, trace_writer=None):
        self.cfg = config
        topo = config.topology
        self.topology = topo
        self.coupling = topo.coupling
        self.engine = topo.engine
        self._write = trace_writer
        self.now = 0
        self.seq = 1                        # the next record's: the trace header takes 0

        self.weights = gen_weights(derive_seed(config.seed, "weights"), config.workload.arch)
        self._cycles = compute_cycles(self.weights, self.engine)
        n = topo.replica_count
        self.healthy_ids = [rid for rid in range(n) if topo.health[rid] == HEALTHY]
        k = len(self.healthy_ids)
        # the compute time of one inference on each healthy replica's clock
        self._compute_ns = np.array([cycles_to_time(self._cycles, topo.clocks[rid]) for rid in self.healthy_ids],
                                    dtype=np.int64)
        # Per healthy replica (a column of the chunk arrays): its jitter
        # models and (stream, size stream) seeds; feed jitter only under
        # loose coupling.
        def streams(models, name):
            return [(models[rid], (derive_seed(config.seed, f"{name}.{rid}"),
                                   derive_seed(config.seed, f"{name}.{rid}.size"))) for rid in self.healthy_ids]
        self._host = streams(topo.host_jitter, "host")
        self._feed = [] if isinstance(self.coupling, Tight) else streams(topo.feed_jitter, "feed")
        # whether a delivery can follow its release: the trace header's feed_jitter
        self._fed = any(model != JitterModel() for model, _ in self._feed)
        # (column, spec, stream seed) of each fault of a healthy replica; a
        # fault of another replica is never evaluated
        column = {rid: i for i, rid in enumerate(self.healthy_ids)}
        self._faults = [(column[rid], spec, derive_seed(config.seed, f"fault.{i}"))
                        for i, (rid, spec) in enumerate(config.faults) if rid in column]
        # (fault index, kind) of each value fault, per column
        self._value_faults = [[(s, spec.kind) for s, (c, spec, _) in enumerate(self._faults)
                               if c == i and isinstance(spec.kind, VALUE_FAULTS)] for i in range(k)]
        self._valued = any(self._value_faults)

        self._last = [None] * k             # a stuck column's last emitted (output, digest)
        # weight-bit flips -> (index, network), indexed in order of first use from 0 for the clean weights
        self._flips = {(): (0, self.weights)}
        self._ids = []                      # each network's `layer_ids` by index, once the bus compare reads them
        self._frames = None                 # the current block of frames
        self._clean = None                  # (outputs, output digests) of the block on the clean weights
        self._bus = topo.bus_trace_compare and isinstance(self.coupling, Tight)

        if isinstance(self.coupling, Tight):
            self._window_ns = max(
                cycles_to_time(self.coupling.skew_tolerance_cycles, topo.clocks[0]), 1
            )
        else:
            self._window_ns = self.coupling.rendezvous_window_ns

        self.fault_count = 0                # consecutive non-pass verdicts: the safety switch's state
        # the report's counters (`tally`): the samples as int64 arrays per chunk, the skews' n, min, sum, max
        self.totals = dict(samples=[[_EMPTY] for _ in range(n)], skews=[0, TIME_LIMIT_NS, 0, 0], timeline=[],
                           verdict_counts=dict.fromkeys(VERDICTS, 0), bus={"comparisons": 0, "divergences": 0},
                           faults=dict.fromkeys(("injected", "detected", "masked_pass", "corrupted_pass"), 0))
        self.ptp_info = []

    # -- per-replica values ----------------------------------------------

    def _flipped(self, flips, rows):
        """(index, outputs, output digests) of the block's frames `rows` on
        the weights with the weight-bit `flips` applied, inferring each
        distinct frame once; `index` numbers the flip set (`_flips`)."""
        if flips not in self._flips:
            weights = flip_weight_bits(self.weights, flips)
            self._flips[flips] = (len(self._flips), weights)
        index, weights = self._flips[flips]
        starts = np.diff(rows, prepend=-1) != 0  # `rows` never falls: a frame starts where it changes
        frames, inverse = rows[starts], np.cumsum(starts) - 1
        outs, _, digests = infer(weights, self._frames[frames], self.engine)
        return index, outs[inverse], digests[inverse]

    def _values(self, rows, emit, fired):
        """(digests, outputs, flip sets, changed) of a chunk's outputs, one
        row per round and one column per healthy replica: each digest, each
        output (one more axis), the index of the weight-flip set it ran on
        (`_flips`) and whether a value fault fired for it."""
        outs, clean = self._clean
        n, k = emit.shape
        digests = np.repeat(clean[rows][:, None], k, axis=1)
        outputs = np.repeat(outs[rows][:, None], k, axis=1)
        keys = np.zeros((n, k), dtype=np.int64)
        changed = np.zeros((n, k), dtype=bool)
        for i, faults in enumerate(self._value_faults):
            if not faults:
                continue
            flips = [(s, (f.layer, f.element_index, f.bit)) for s, f in faults if isinstance(f, WeightBitFlip)]
            out_flips = [(s, (f.element_index, f.bit)) for s, f in faults if isinstance(f, OutputBitFlip)]
            stuck = [s for s, f in faults if isinstance(f, StuckOutput)]
            emitted = emit[:, i]
            if flips:
                patterns = fired[:, [s for s, _ in flips]] & emitted[:, None]
                # a code per round, the first flip its top bit (Python ints past 63 flips): codes sort as patterns do
                codes = patterns @ np.array([1 << j for j in range(len(flips))][::-1],
                                            dtype=np.int64 if len(flips) < 64 else object)
                ordered = np.sort(codes)
                for code in ordered[np.diff(ordered, prepend=0) != 0]:  # each nonzero code once
                    at = codes == code
                    keys[at, i], outputs[at, i], digests[at, i] = self._flipped(
                        tuple(flip for (_, flip), on in zip(flips, patterns[at.argmax()]) if on), rows[at])
            if out_flips:
                slots = [s for s, _ in out_flips]
                at = fired[:, slots].any(axis=1) & emitted
                if at.any():
                    flipped = outputs[at, i]
                    flip_output_bits(flipped, [flip for _, flip in out_flips], fired[at][:, slots])
                    outputs[at, i] = flipped
                    digests[at, i] = tensor_digests(flipped.shape[1:], flipped)
            if stuck:
                self._hold(i, emitted, fired[:, stuck].any(axis=1) & emitted, outputs[:, i], digests[:, i])
            changed[:, i] = fired[:, [s for s, _ in faults]].any(axis=1) & emitted
        return digests, outputs, keys, changed

    def _hold(self, i, emitted, stuck, outputs, digests):
        """Apply column i's stuck faults to its `outputs` and `digests` over
        a chunk, in place: a stuck output repeats the replica's last emitted
        output, when it has one. Keep the last emitted output for the next
        chunk."""
        n = len(emitted)
        at = np.arange(n)
        own = emitted & ~stuck
        if self._last[i] is None and emitted.any():
            own[emitted.argmax()] = True  # nothing to repeat yet
        source = np.maximum.accumulate(np.where(own, at, -1))
        held = stuck & ~own
        inside = held & (source >= 0)
        outputs[inside] = outputs[source[inside]]
        digests[inside] = digests[source[inside]]
        before = held & (source < 0)
        if before.any():
            outputs[before], digests[before] = self._last[i]
        if emitted.any():
            j = n - 1 - int(emitted[::-1].argmax())
            self._last[i] = (outputs[j].copy(), digests[j])

    def _bus_compare(self, emit, keys, compared):
        """(other, index): per round of a chunk that is `compared`, the column
        of the first replica whose bus trace differs from that of the first
        replica that emitted, and the event index where it diverges; -1 where
        none does. `keys` holds the flip set each output ran on (`_values`)."""
        n, k = emit.shape
        other, index = np.full(n, -1), np.full(n, -1)
        at = np.flatnonzero(compared & (keys != 0).any(axis=1))
        if not at.size:
            return other, index
        # each flip set's parameter ids, then each output's
        networks = [weights for _, weights in self._flips.values()]
        self._ids += [layer_ids(weights, networks) for weights in networks[len(self._ids):]]
        traces = np.array(self._ids)[keys[at]]
        emitted = emit[at]
        first = emitted.argmax(axis=1)
        base = traces[np.arange(len(at)), first]
        for c in range(1, k):
            event = compare_bus_traces(base, traces[:, c])
            hit = (other[at] < 0) & emitted[:, c] & (c > first) & (event >= 0)
            other[at[hit]], index[at[hit]] = c, event[hit]
        return other, index

    # -- a chunk of rounds -----------------------------------------------

    def _jitter(self, streams, start, n):
        """(n, columns) int64 array: the samples of rounds start ..
        start+n-1 of the run from each (model, seeds) of `streams`."""
        out = np.zeros((n, len(self.healthy_ids)), dtype=np.int64)
        for i, (model, seeds) in enumerate(streams):
            out[:, i] = sample_turnaround_overheads(model, seeds, start, n)
        return out

    def _run_chunk(self, first, lo, hi):
        """Decide rounds lo .. hi-1 of the block whose first frame is `first`
        and return their columns (`trace.rounds`). Keep only what the next
        chunk needs: stuck outputs, `now`, `fault_count`."""
        reps = self.cfg.workload.repetitions_per_frame
        n = hi - lo
        rows, repetitions = np.divmod(np.arange(lo, hi), reps)
        k = len(self.healthy_ids)

        # times relative to each round's release
        start = first * reps + lo  # the run's index of round lo
        feed = self._jitter(self._feed, start, n)
        comp = feed + self._jitter(self._host, start, n) + self._compute_ns
        emit = np.ones((n, k), dtype=bool)
        fired = np.zeros((n, len(self._faults)), dtype=bool)
        for s, (i, spec, seed) in enumerate(self._faults):
            fired[:, s] = trigger_fires(spec.trigger, first + rows, seed, start)
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

        # outcomes
        if k:
            complete, skew, deadline = rendezvous_rounds(comp + self._corr, emit, self._window_ns)
            durations = np.maximum(deadline, reduce(np.maximum, comp.T))
        else:
            complete = np.zeros(n, dtype=bool)
            durations = skew = np.zeros(n, dtype=np.int64)
        ends = self.now + np.cumsum(durations)
        self.now = int(ends[-1])

        # values
        clean = self._clean[1][rows]
        labels = np.zeros((n, k), dtype=np.int64)
        digests = outputs = other = index = None
        diverged = compared = np.zeros(n, dtype=bool)
        if self._bus:
            compared = emit.sum(axis=1) >= 2
        if self._valued:
            digests, outputs, keys, changed = self._values(rows, emit, fired)
            voted = complete & changed.any(axis=1)
            if voted.any():
                labels[voted] = agreement_labels(self.topology.comparator, digests[voted], outputs[voted])
            if self._bus and k >= 2:
                other, index = self._bus_compare(emit, keys, compared)
                diverged = other >= 0
        verdict, best = vote_rounds(complete, labels, self.topology.policy.required_agreement)
        if not k:
            verdict[:] = _DEGRADED
        agreed = clean
        if digests is not None:
            agreed = digests[np.arange(n), (labels == best[:, None]).argmax(axis=1)]

        # state
        action, counts = safety_scan(verdict != _PASS, self.topology.debounce_threshold, self.fault_count)
        self.fault_count = int(counts[-1])
        c = dict(frame_ids=first + rows, reps=repetitions, clean=clean, starts=ends - durations,
                 ends=ends, comp=comp, emit=emit, applied=fired.any(axis=1), complete=complete, skew=skew,
                 verdict=verdict, labels=labels, best=best, agreed=agreed, digests=digests, outputs=outputs,
                 compared=compared, other=other, index=index, diverged=diverged, action=action)
        if self._write is not None:  # the columns only the trace reads
            c.update(classes=self._clean[0][rows[repetitions == 0]].argmax(axis=1), feed=feed if self._fed else None)
        return c

    # -- clock sync ------------------------------------------------------

    def _sync_clocks(self):
        s = self.topology.ptp
        for rid in range(self.topology.replica_count):
            offset, delay = estimate_ptp_offset(simulate_ptp_exchange(
                self.now, self.topology.clock_offsets_ns[rid], s.link_delay_ns + s.asymmetry_ns, s.link_delay_ns,
                s.slave_turnaround_ns))
            self.ptp_info.append({"replica_id": rid, "offset_ns": offset, "path_delay_ns": delay})
            if self._write is not None:
                self._write(trace.ptp(self.now, self.seq, rid, offset, delay))
            self.seq += 1

    # -- top level --------------------------------------------------------

    def run(self) -> ExperimentReport:
        wl, expanded = self.cfg.workload, self.cfg.to_json_dict()
        if self._write is not None:
            self._write(trace.header(self.cfg, expanded, self.healthy_ids, self._cycles, self._fed, self._window_ns))
        if self.topology.ptp.enabled:
            self._sync_clocks()
        # what the checker adds to a completion time to get its arrival time
        ptp = {row["replica_id"]: row["offset_ns"] for row in self.ptp_info}
        self._corr = [self.topology.clock_offsets_ns[rid] - ptp.get(rid, 0) for rid in self.healthy_ids]
        self._check_time_limit()
        reps = wl.repetitions_per_frame
        size = BLOCK_VALUES // (max(wl.arch) + 1)
        for first in range(0, wl.frame_count, size):
            count = min(size, wl.frame_count - first)
            self._frames = gen_frames(self.cfg.seed, range(first, first + count), wl.input_shape)
            outs, _, digests = infer(self.weights, self._frames, self.engine)
            self._clean = (outs, digests)
            for lo in range(0, count * reps, ROUND_CHUNK):
                c = self._run_chunk(first, lo, min(lo + ROUND_CHUNK, count * reps))
                tally(self.totals, c, self.healthy_ids)
                if self._write is not None:
                    self.seq = trace.rounds(self._write, self.seq, c, self.healthy_ids)
                del c  # the next chunk runs without this one's columns
        return self._build_report(expanded)

    def _check_time_limit(self):
        """Refuse a run whose simulated time could reach `TIME_LIMIT_NS`."""
        delays = [0] * len(self.healthy_ids)
        for i, spec, _ in self._faults:
            if isinstance(spec.kind, ExtraDelay):
                delays[i] += abs(spec.kind.ns)
        per_round = self._window_ns + sum(
            host.bound_ns + (self._feed[i][0].bound_ns if self._feed else 0)
            + int(self._compute_ns[i]) + delays[i] + abs(self._corr[i])
            for i, (host, _) in enumerate(self._host)
        )
        wl = self.cfg.workload
        rounds = wl.frame_count * wl.repetitions_per_frame
        if rounds * per_round >= TIME_LIMIT_NS:
            raise SimulationError(
                f"simulated time could reach 2**62 ns: up to {per_round} ns per round over {rounds} rounds")

    def _build_report(self, expanded) -> ExperimentReport:
        prof, t = self.cfg.profiler, self.totals
        replicas = []
        for rid, chunks in enumerate(t["samples"]):
            xs = np.concatenate(chunks)
            table = value_table(xs) if len(xs) else None  # one sort for the three statistics
            replicas.append({
                "replica_id": rid,
                "samples": xs,
                "stats": stats(xs, table) if len(xs) else None,
                "outliers": detect_outliers(xs, prof.outlier_threshold, table) if len(xs) >= 3 else None,
                "histogram": histogram(xs, prof.bin_count, table),
            })
        n, lo, total, hi = t["skews"]
        skew = {"n": n, "min": lo, "mean": total / n, "max": hi} if n else None
        return ExperimentReport(
            config=expanded,
            replicas=replicas,
            verdict_counts=t["verdict_counts"],
            safety={"final_state": SAFE_OFF if self.fault_count >= self.topology.debounce_threshold else OPERATIONAL,
                    "timeline": t["timeline"]},
            faults=t["faults"],
            skew_ns=skew,
            bus=t["bus"],
            ptp=self.ptp_info,
        )


def tally(t, c, replica_ids):
    """Fold a chunk's columns `c` (`ExperimentRunner._run_chunk`), whose
    columns are the healthy `replica_ids`, into the report's counters `t`
    (`ExperimentRunner.totals`); SafeOff is entered at its `ENTER_SAFE_OFF`."""
    comp, emit, verdict, applied = c["comp"], c["emit"], c["verdict"], c["applied"]
    for i, rid in enumerate(replica_ids):
        t["samples"][rid].append(comp[emit[:, i], i])
    skews, (n, lo, total, hi) = c["skew"][c["complete"]], t["skews"]
    t["skews"] = [n + len(skews), int(skews.min(initial=lo)), total + int(skews.sum()), int(skews.max(initial=hi))]
    for code, n in enumerate(np.bincount(verdict, minlength=len(VERDICTS)).tolist()):
        t["verdict_counts"][VERDICTS[code]] += n
    t["bus"]["comparisons"] += int(c["compared"].sum())
    t["bus"]["divergences"] += int(c["diverged"].sum())
    if applied.any():  # the rounds in which a fault fired, by outcome
        passed = applied & (verdict == _PASS)
        masked = passed & (c["agreed"] == c["clean"])
        for key, flags in (("injected", applied), ("detected", applied & ~passed), ("masked_pass", masked),
                           ("corrupted_pass", passed & ~masked)):
            t["faults"][key] += int(flags.sum())
    for j in np.flatnonzero(c["action"] == _ENTER).tolist():
        t["timeline"].append({"t_ns": int(c["ends"][j]), "frame_id": int(c["frame_ids"][j]),
                              "repetition": int(c["reps"][j]), "from": OPERATIONAL, "to": SAFE_OFF})


_SLICE_LEN = 4096


def _with_arrays(node, fn):
    """`node` with each non-empty NumPy array `xs` replaced by `fn(xs)`, in
    file order (an empty one becomes [])."""
    if isinstance(node, np.ndarray) and node.size:
        return fn(node)
    if isinstance(node, dict):
        return {k: _with_arrays(v, fn) for k, v in node.items()}
    if isinstance(node, (list, np.ndarray)):
        return [_with_arrays(v, fn) for v in node]
    return node


def write_report(report: dict, f):
    """Write to `f` what `json.dump(report, f, indent=2)` and a newline would
    with each int64 or float64 array in `report` as a list (finite floats:
    `repr` writes them as JSON does). The arrays are spliced into
    the dump, each written from `tolist` and `repr`, `_SLICE_LEN` numbers at a
    time. They stand in the dump as the first string "\\0splice<k>\\0" (k = 0,
    1, ...) whose JSON text occurs once per array, so no report string is cut."""
    for k in naturals():
        marker, arrays = f"\0splice{k}\0", []
        hollow = _with_arrays(report, lambda xs: arrays.append(xs) or marker)
        parts = json.dumps(hollow, indent=2).split(json.dumps(marker))
        if len(parts) == len(arrays) + 1:
            break
    for text, xs in zip(parts, arrays):
        line = text[text.rfind("\n") + 1:]
        sep = ",\n" + " " * (len(line) - len(line.lstrip(" ")) + 2)
        f.write(text + "[" + sep[1:])
        for i in range(0, len(xs), _SLICE_LEN):
            f.write((sep if i else "") + sep.join(map(repr, xs[i:i + _SLICE_LEN].tolist())))
        f.write(sep[1:-2] + "]")
    f.write(parts[-1] + "\n")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment without a trace; `ExperimentRunner` takes a trace
    writer."""
    return ExperimentRunner(config).run()


def run_to_directory(config: ExperimentConfig, out_dir) -> ExperimentReport:
    """Run one experiment and write trace.jsonl, report.json and one
    histogram CSV per replica into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / TRACE_FILENAME, "wb") as tf:
        report = ExperimentRunner(config, tf.write).run()
    with open(out / REPORT_FILENAME, "w") as rf:
        write_report(report._contents(), rf)
    for row in report.replicas:
        with open(out / f"hist_replica{row['replica_id']}.csv", "w") as hf:
            write_histogram_csv(row["histogram"], hf)
    return report
