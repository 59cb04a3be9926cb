"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: plain-int loops
instead of numpy, Fraction arithmetic instead of scaled integer sums,
subset enumeration instead of greedy grouping.

`run_reference` is the scalar experiment runner, frozen as a reference:
one frame, one inference and one bus trace of (cycle, kind, digest)
events at a time, in plain Python ints. It draws from the scalar random
stream and decides each round with the scalar input barrier, rendezvous,
vote and safety step, frozen here as verbatim copies of the code the
library replaced with arrays. It imports only the package version, the
stream seeds and hashes, simulated time, the PTP estimate, the policy and
comparator types, `profiling.stats` and the error types; never the
experiment runner, the trace writer, the tensors, the replica or the
faults. Its report takes the histogram and the outliers from
`scalar_histogram` and `scalar_detect_outliers` below, but the moments
from the package's `stats`: the exact-rational `stats_reference` agrees
with `stats` only up to float rounding, so its report could not be
byte-equal.
"""

import json
import math
import statistics
import struct
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

RELU = "relu"


def infer_reference(weights, input_tensor):
    """Arbitrary-precision integer evaluation of the network, mirroring the
    stated arithmetic rules with plain Python loops."""
    x = [int(v) for v in input_tensor.data]
    for layer in weights.layers:
        out_w, in_w = layer.out_width, layer.in_width
        w = [int(v) for v in layer.weights.data]
        b = [int(v) for v in layer.bias.data]
        y = []
        for j in range(out_w):
            acc = sum(w[j * in_w + i] * x[i] for i in range(in_w)) + (b[j] << 8)
            q, r = divmod(acc, 256)
            if r > 128 or (r == 128 and (q & 1)):
                q += 1
            q = max(-32768, min(32767, q))
            if layer.activation == RELU and q < 0:
                q = 0
            y.append(q)
        x = y
    return x


def stats_reference(samples):
    """Exact-rational moment statistics; floats only at the very end."""
    n = len(samples)
    mean = Fraction(sum(samples), n)
    devs = [Fraction(x) - mean for x in samples]
    m2 = sum(d * d for d in devs) / n
    m3 = sum(d**3 for d in devs) / n
    m4 = sum(d**4 for d in devs) / n
    out = {
        "n": n,
        "mean": float(mean),
        "sample_std": math.sqrt(float(sum(d * d for d in devs) / (n - 1))) if n > 1 else 0.0,
        "min": min(samples),
        "max": max(samples),
        "p50": _nearest_rank_ref(samples, Fraction(1, 2)),
        "p95": _nearest_rank_ref(samples, Fraction(19, 20)),
        "p99": _nearest_rank_ref(samples, Fraction(99, 100)),
        "skewness": None,
        "excess_kurtosis": None,
        "bimodality": None,
    }
    if n >= 4 and m2 > 0:
        g1 = float(m3) / float(m2) ** 1.5
        g2 = float(m4) / float(m2) ** 2 - 3.0
        corr = Fraction(3 * (n - 1) ** 2, (n - 2) * (n - 3))
        out["skewness"] = g1
        out["excess_kurtosis"] = g2
        out["bimodality"] = (g1 * g1 + 1.0) / (g2 + float(corr))
    return out


def _nearest_rank_ref(samples, p: Fraction):
    xs = sorted(samples)
    rank = math.ceil(p * len(xs))
    return xs[max(rank, 1) - 1]


def ks_reference(a, b):
    """Supremum ECDF gap by brute force over every observed value."""
    na, nb = len(a), len(b)
    best = Fraction(0)
    for v in sorted(set(a) | set(b)):
        fa = Fraction(sum(1 for x in a if x <= v), na)
        fb = Fraction(sum(1 for x in b if x <= v), nb)
        gap = abs(fa - fb)
        if gap > best:
            best = gap
    return float(best)


def scalar_histogram(samples, bin_count):
    """`profiling.histogram` as it was before it was vectorized."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    if not samples:
        return []
    lo = min(samples)
    hi = max(samples)
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for x in samples:
        if width == 0:
            idx = bin_count - 1
        else:
            idx = min(int((x - lo) / width), bin_count - 1)
        counts[idx] += 1
    return [{"lower_edge_ns": lo + i * width, "count": counts[i]} for i in range(bin_count)]


def scalar_detect_outliers(samples, threshold=3.5):
    """`profiling.detect_outliers` as it was before it was vectorized."""
    n = len(samples)
    if n < 3:
        raise ValueError("outlier detection needs at least 3 samples")
    med = statistics.median(samples)
    devs = [abs(x - med) for x in samples]
    denom = statistics.median(devs)
    if denom == 0:
        denom = sum(devs) / n
    indices, scores = [], []
    if denom != 0:
        for i, d in enumerate(devs):
            score = 0.6745 * d / denom
            if score > threshold:
                indices.append(i)
                scores.append(score)
    return {"method": "mad_modified_z", "threshold": threshold, "indices": indices, "scores": scores}


def required_agreement_ref(m, n):
    return m if n == 1 else max(m, 2)


def vote_oracle_exact(labels, m, n):
    """Brute-force verdict over labelled outputs (exact agreement).

    Enumerates every subset, keeps the mutually-agreeing ones, picks the
    largest (ties by lowest contained replica id). Returns
    ('pass', agreeing_ids) or ('mismatch', frozenset of id-groups).
    """
    ids = list(range(len(labels)))
    best = None
    for size in range(len(ids), 0, -1):
        candidates = []
        for subset in combinations(ids, size):
            if all(labels[i] == labels[j] for i in subset for j in subset):
                candidates.append(subset)
        if candidates:
            best = min(candidates, key=lambda s: min(s))
            break
    required = required_agreement_ref(m, n)
    if best is not None and len(best) >= required:
        return ("pass", tuple(best))
    groups = {}
    for i in ids:
        groups.setdefault(labels[i], []).append(i)
    return ("mismatch", frozenset(tuple(g) for g in groups.values()))


def tolerance_cliques(values, raw_eps):
    """All maximal within-eps cliques, for documenting the gap between the
    greedy pivot rule and the clique view of non-transitive agreement."""
    ids = list(range(len(values)))
    cliques = []
    for size in range(len(ids), 0, -1):
        for subset in combinations(ids, size):
            if all(abs(values[i] - values[j]) <= raw_eps for i in subset for j in subset):
                if not any(set(subset) <= set(c) for c in cliques):
                    cliques.append(subset)
    return cliques


# -- the scalar experiment runner, frozen --------------------------------------
#
# A copy of the per-round runner as it stood before frames were processed in
# blocks, with its own copies of the leaf code that the block path rewrote:
# frame and weight synthesis, layer-by-layer inference with its bus trace,
# the event-by-event bus compare, bit flips, fault folding and the tensor
# digest over tuple data. Change it only to follow an on-purpose change of the
# trace or report format.

from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402

from lockstepsim import __version__  # noqa: E402
from lockstepsim.coupling import Tight, estimate_ptp_offset, simulate_ptp_exchange  # noqa: E402
from lockstepsim.errors import (  # noqa: E402
    ConfigError,
    HarnessError,
    ProtocolError,
    SimulationError,
)
from lockstepsim.eventsim import JitterModel, cycles_to_time  # noqa: E402
from lockstepsim.profiling import stats  # noqa: E402
from lockstepsim.rng import _GAMMA, MASK64, derive_seed, fnv1a64, mix64  # noqa: E402
from lockstepsim.voting import (  # noqa: E402
    DEGRADED,
    DELIVER_OUTPUT,
    ENTER_SAFE_OFF,
    MISMATCH,
    OPERATIONAL,
    PASS,
    SAFE_OFF,
    SUPPRESS_OUTPUT,
    TIMEOUT,
    Exact,
    VotingPolicy,
)

FRAC_BITS = 8


# -- the scalar round rules, frozen --------------------------------------------
#
# Verbatim copies of the scalar random stream, input barrier, rendezvous,
# vote and safety step that the library replaced with its array kernel
# (`rng.draws`, `coupling.rendezvous_rounds`, `voting.agreement_labels`,
# `vote_rounds` and `safety_scan`), and the scalar turnaround sample of one
# round (`eventsim.sample_turnaround_overheads`). The runner below and the
# differential tests use them.

class Rng:
    """A single 64-bit SplitMix64 stream."""

    __slots__ = ("_seed", "_state")

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._state = self._seed

    @property
    def seed(self) -> int:
        """Base seed this stream was created with; drives child derivation."""
        return self._seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 significant bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def child(self, name: str) -> "Rng":
        """Independent named substream, unaffected by draws made on self."""
        return Rng(derive_seed(self._seed, name))

    def __repr__(self) -> str:
        return f"Rng(seed=0x{self._seed:016x})"


class NoHealthyReplicas(HarnessError):
    """Input distribution found nothing to feed; the system must go safe."""


@dataclass(frozen=True)
class InputBarrier:
    frame_id: int
    release_time: int
    deliveries: tuple  # (replica_id, delivery_time_ns), in replica order


def distribute_input(frame_id: int, release_time: int, replica_ids, mode, feeds=None, r=0) -> InputBarrier:
    """Plan the delivery of one frame to every healthy replica.

    Tight coupling delivers to all replicas at the release time exactly.
    Loose coupling delays each delivery by the sample of round `r` of that
    replica's feed jitter; `feeds` is a list of (JitterModel, stream seeds)
    aligned with `replica_ids`.
    """
    replica_ids = list(replica_ids)
    if not replica_ids:
        raise NoHealthyReplicas("no healthy replicas to feed")
    if isinstance(mode, Tight) or feeds is None:
        deliveries = tuple((rid, release_time) for rid in replica_ids)
    else:
        deliveries = []
        for rid, (model, seeds) in zip(replica_ids, feeds):
            deliveries.append((rid, release_time + sample_turnaround_overhead(model, seeds, r)))
        deliveries = tuple(deliveries)
    return InputBarrier(frame_id, release_time, deliveries)


@dataclass(frozen=True)
class Complete:
    present: tuple  # (replica_id, completion_time_ns), time-sorted
    skew_ns: int


@dataclass(frozen=True)
class Timeout:
    present_ids: tuple
    missing_ids: tuple


RendezvousTimeout = Timeout


def rendezvous(expected_ids, arrivals, window_ns: int):
    """Collect outputs for one frame.

    The window opens at the first arrival; every expected id arriving
    within [first, first + window] is present, the rest (late or never)
    are missing. Complete reports the max pairwise completion gap.
    """
    if window_ns <= 0:
        raise ConfigError("rendezvous window must be positive")
    expected = set(expected_ids)
    seen = set()
    for rid, _ in arrivals:
        if rid in seen:
            raise ProtocolError(f"duplicate output from replica {rid} within one frame")
        if rid not in expected:
            raise ProtocolError(f"output from unexpected replica {rid}")
        seen.add(rid)
    arr = sorted(arrivals, key=lambda it: (it[1], it[0]))
    if not arr:
        return Timeout((), tuple(sorted(expected)))
    cutoff = arr[0][1] + window_ns
    present = [(rid, t) for rid, t in arr if t <= cutoff]
    present_ids = {rid for rid, _ in present}
    if present_ids == expected:
        return Complete(tuple(present), present[-1][1] - present[0][1])
    return Timeout(
        tuple(sorted(present_ids)),
        tuple(sorted(expected - present_ids)),
    )


def _uniform_at(seed: int, k: int) -> float:
    """The uniform of draw k (from 1) of the stream `seed`: the k-th
    `Rng(seed).uniform()`."""
    return (mix64((seed + k * _GAMMA) & MASK64) >> 11) * (1.0 / (1 << 53))


def sample_turnaround_overhead(model: JitterModel, seeds, r: int) -> int:
    """The overhead sample of round r from the streams `seeds` = (stream,
    size stream): draw 2r+1 of the stream decides the mode, draw 2r+2 the
    spike, and draw r+1 of the size stream sizes a spike whose mean exceeds
    1, by inversion of the geometric law."""
    seed, size_seed = seeds
    total = model.base_overhead_ns
    if _uniform_at(seed, 2 * r + 1) < model.mode2_prob:
        total += model.mode2_offset_ns
    if _uniform_at(seed, 2 * r + 2) < model.spike_prob:
        mean = model.spike_scale_ns
        if mean > 1:
            u = _uniform_at(size_seed, r + 1)
            total += max(1, math.ceil(math.log1p(-u) / math.log1p(-1.0 / mean)))
        else:
            total += 1
    return total


def outputs_agree(comparator, a, b) -> bool:
    if a.output.shape != b.output.shape:
        raise ProtocolError(
            f"replicas {a.replica_id} and {b.replica_id} produced mismatched shapes "
            f"{a.output.shape} vs {b.output.shape}"
        )
    if isinstance(comparator, Exact):
        return a.digest == b.digest
    # widened: the difference of two int16 values can overflow int16
    diff = np.subtract(a.output.data, b.output.data, dtype=np.int64)
    return bool((np.abs(diff) <= comparator.eps * (1 << FRAC_BITS)).all())


@dataclass(frozen=True)
class AgreementGroup:
    replica_ids: tuple
    pivot: object  # the first-scanned member's ReplicaOutput


def group_agreements(outputs, comparator) -> list:
    """Group outputs by agreement.

    Outputs are scanned in replica-id order; each joins the first existing
    group whose pivot (its first member) agrees with it, else founds a new
    group. For an exact comparator this yields the digest equivalence
    classes; under a tolerance it is a deterministic greedy rule.
    """
    if not outputs:
        raise ProtocolError("agreement grouping needs at least one output")
    ordered = sorted(outputs, key=lambda o: o.replica_id)
    groups = []  # [pivot, [ids]]
    for out in ordered:
        for g in groups:
            if outputs_agree(comparator, g[0], out):
                g[1].append(out.replica_id)
                break
        else:
            groups.append([out, [out.replica_id]])
    return [AgreementGroup(tuple(ids), pivot) for pivot, ids in groups]


@dataclass(frozen=True)
class Verdict:
    variant: str
    agreed: object = None      # pivot ReplicaOutput, pass only
    agreeing_ids: tuple = ()
    groups: tuple = ()         # tuple of replica-id tuples, mismatch only
    missing_ids: tuple = ()
    reason: str = ""

    @classmethod
    def passed(cls, agreed, agreeing_ids):
        return cls(PASS, agreed=agreed, agreeing_ids=tuple(agreeing_ids))

    @classmethod
    def mismatch(cls, groups):
        return cls(MISMATCH, groups=tuple(tuple(g) for g in groups))

    @classmethod
    def timeout(cls, missing_ids):
        return cls(TIMEOUT, missing_ids=tuple(missing_ids))

    @classmethod
    def degraded(cls, reason):
        return cls(DEGRADED, reason=reason)


def vote(outputs, policy: VotingPolicy, comparator, outcome=None) -> Verdict:
    """MooN verdict over the outputs of one frame.

    A rendezvous timeout is a Timeout verdict regardless of values. The
    largest agreement group of at least `required_agreement` members wins
    (ties between equal-size groups go to the lowest contained replica id);
    anything else is a Mismatch. Too few outputs to ever reach the
    threshold is Degraded rather than Mismatch: a missing channel and a
    disagreeing channel are different failure modes.
    """
    if isinstance(outcome, RendezvousTimeout):
        return Verdict.timeout(outcome.missing_ids)
    if not outputs:
        return Verdict.timeout(tuple(range(policy.n)))
    required = policy.required_agreement
    if len(outputs) < required:
        return Verdict.degraded(
            f"{len(outputs)} output(s) cannot reach {required}-way agreement"
        )
    groups = group_agreements(outputs, comparator)
    best = max(groups, key=lambda g: (len(g.replica_ids), -min(g.replica_ids)))
    if len(best.replica_ids) >= required:
        return Verdict.passed(best.pivot, best.replica_ids)
    return Verdict.mismatch(tuple(g.replica_ids for g in groups))


@dataclass(frozen=True)
class SafetySwitchState:
    state: str = OPERATIONAL
    consecutive_fault_count: int = 0
    debounce_threshold: int = 1

    def __post_init__(self):
        if self.debounce_threshold < 1:
            raise ConfigError("debounce_threshold must be at least 1")


def step_safety(state: SafetySwitchState, verdict: Verdict):
    """Advance the safety switch by one verdict.

    Pass resets the fault counter and delivers; any non-Pass counts toward
    the debounce threshold and suppresses; reaching the threshold enters
    SafeOff, which is absorbing. Returns (new state, action).
    """
    if state.state == SAFE_OFF:
        return state, SUPPRESS_OUTPUT
    if verdict.variant == PASS:
        return replace(state, consecutive_fault_count=0), DELIVER_OUTPUT
    count = state.consecutive_fault_count + 1
    if count >= state.debounce_threshold:
        return replace(state, state=SAFE_OFF, consecutive_fault_count=count), ENTER_SAFE_OFF
    return replace(state, consecutive_fault_count=count), SUPPRESS_OUTPUT


_Tensor = namedtuple("_Tensor", "shape data")
_Layer = namedtuple("_Layer", "weights bias activation out_width in_width")
_Weights = namedtuple("_Weights", "layers")
_Output = namedtuple(
    "_Output", "replica_id frame_id output classification digest compute_cycles completion_time trace")
_BusEvent = namedtuple("_BusEvent", "cycle kind payload_digest")
_Divergence = namedtuple("_Divergence", "event_index reason")

_WEIGHT_CLAMP = 1 << 12
_INPUT_CLAMP = 1 << 8


def _digest(t):
    rank = len(t.shape)
    return fnv1a64(struct.pack(f"<{rank + 1}I{len(t.data)}h", rank, *t.shape, *t.data))


def _combine(*digests):
    return fnv1a64(b"".join(struct.pack("<Q", d) for d in digests))


def _gen_weights(seed, arch):
    rng = Rng(seed)
    span = 2 * _WEIGHT_CLAMP + 1
    layers = []
    for li, (in_w, out_w) in enumerate(zip(arch, arch[1:])):
        w = tuple(rng.randrange(span) - _WEIGHT_CLAMP for _ in range(out_w * in_w))
        b = tuple(rng.randrange(span) - _WEIGHT_CLAMP for _ in range(out_w))
        activation = "none" if li == len(arch) - 2 else RELU
        layers.append(_Layer(_Tensor((out_w, in_w), w), _Tensor((out_w,), b), activation, out_w, in_w))
    return _Weights(tuple(layers))


def _gen_frame(seed, frame_id, shape):
    rng = Rng(derive_seed(seed, f"frame.{frame_id}"))
    span = 2 * _INPUT_CLAMP + 1
    return _Tensor(tuple(shape), tuple(rng.randrange(span) - _INPUT_CLAMP for _ in range(math.prod(shape))))


def _infer(weights, input_tensor, engine):
    current = input_tensor
    cycle = engine.pipeline_startup_cycles
    trace = []
    for layer in weights.layers:
        out = _Tensor((layer.out_width,), tuple(infer_reference(_Weights((layer,)), current)))
        macs = layer.out_width * layer.in_width
        loads = layer.in_width + macs + layer.out_width
        stores = layer.out_width
        params_digest = _combine(_digest(layer.weights), _digest(layer.bias))
        out_digest = _digest(out)
        load_done = cycle + loads * engine.cycles_per_load
        exec_done = load_done + macs * engine.cycles_per_mac
        trace.append(_BusEvent(cycle, "fetch", params_digest))
        trace.append(_BusEvent(cycle, "load", _digest(current)))
        trace.append(_BusEvent(load_done, "execute", out_digest))
        trace.append(_BusEvent(exec_done, "store", out_digest))
        cycle = exec_done + stores * engine.cycles_per_store
        current = out
    return current, cycle, tuple(trace)


def _compare_bus_traces(a, b, skew_tolerance_cycles):
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea.kind != eb.kind:
            return _Divergence(i, f"kind mismatch ({ea.kind} vs {eb.kind})")
        if ea.payload_digest != eb.payload_digest:
            return _Divergence(i, "payload digest mismatch")
        gap = abs(ea.cycle - eb.cycle)
        if gap > skew_tolerance_cycles:
            return _Divergence(i, f"cycle skew {gap} exceeds tolerance {skew_tolerance_cycles}")
    if len(a) != len(b):
        return _Divergence(min(len(a), len(b)), "trace length mismatch")
    return None


def _flip_bit(t, element_index, bit):
    raw = (t.data[element_index] & 0xFFFF) ^ (1 << bit)
    if raw >= 1 << 15:
        raw -= 1 << 16
    data = list(t.data)
    data[element_index] = raw
    return _Tensor(t.shape, tuple(data))


def _flip_weight_bits(weights, flips):
    layers = list(weights.layers)
    for layer_idx, element_index, bit in flips:
        layers[layer_idx] = layers[layer_idx]._replace(
            weights=_flip_bit(layers[layer_idx].weights, element_index, bit))
    return _Weights(tuple(layers))


def _argmax(t):
    return t.data.index(max(t.data))


def _apply_fault(spec, effects, frame_id, rng):
    """Fold one fault into `effects` (a dict); whether its trigger fired."""
    trigger = type(spec.trigger).__name__
    if trigger == "OnFrame":
        fired = frame_id == spec.trigger.frame_id
    elif trigger == "WithProbability":
        fired = rng.uniform() < spec.trigger.p
    else:
        fired = True
    if not fired:
        return False
    kind, name = spec.kind, type(spec.kind).__name__
    if name == "WeightBitFlip":
        effects["weight_flips"].append((kind.layer, kind.element_index, kind.bit))
    elif name == "OutputBitFlip":
        effects["output_flips"].append((kind.element_index, kind.bit))
    elif name == "ExtraDelay":
        effects["extra_delay_ns"] += kind.ns
    elif name == "DropOutput":
        effects["drop"] = True
    else:
        effects["stuck"] = True
    return True


def _ids(ids):
    return "[" + ",".join(map(str, ids)) + "]"


class _ReferenceRunner:
    def __init__(self, config):
        self.cfg = config
        topo = config.topology
        self.topology = topo
        self.coupling = topo.coupling
        self.engine = topo.engine
        self.lines = []
        self.now = 0

        root = Rng(config.seed)
        self.weights = _gen_weights(derive_seed(config.seed, "weights"), config.workload.arch)
        n = topo.replica_count
        self.host_pairs = []
        self.feed_pairs = []
        for rid in range(n):
            for pairs, models, name in ((self.host_pairs, topo.host_jitter, "host"),
                                        (self.feed_pairs, topo.feed_jitter, "feed")):
                seeds = (root.child(f"{name}.{rid}").seed, root.child(f"{name}.{rid}.size").seed)
                pairs.append((models[rid], seeds))
        self.replica_faults = {rid: [] for rid in range(n)}
        for i, (rid, spec) in enumerate(config.faults):
            self.replica_faults[rid].append((spec, root.child(f"fault.{i}")))

        self.healthy_ids = [rid for rid in range(n) if topo.health[rid] == "healthy"]
        self.clock_offsets = list(topo.clock_offsets_ns)
        self.ptp_corrections = [0] * n
        self.prev_output = [None] * n

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

    def _write(self, t, body):
        """One record at time t, whose seq is its line index."""
        self.lines.append(f'{{"t_ns":{t},"seq":{len(self.lines)},{body}}}\n')

    def _compute(self, rid, frame_id, input_tensor, clean):
        effects = {"weight_flips": [], "output_flips": [], "extra_delay_ns": 0,
                   "drop": False, "stuck": False}
        applied = False
        for spec, frng in self.replica_faults[rid]:
            applied |= _apply_fault(spec, effects, frame_id, frng)
        out, cycles, trace, digest, classification = clean
        if effects["weight_flips"]:
            mutated = _flip_weight_bits(self.weights, effects["weight_flips"])
            out, cycles, trace = _infer(mutated, input_tensor, self.engine)
            digest = _digest(out)
            classification = _argmax(out)
        if effects["output_flips"]:
            for element_index, bit in effects["output_flips"]:
                out = _flip_bit(out, element_index, bit)
            digest = _digest(out)
            classification = _argmax(out)
        if effects["stuck"] and self.prev_output[rid] is not None:
            out = self.prev_output[rid]
            digest = _digest(out)
            classification = _argmax(out)
        return out, cycles, trace, digest, classification, effects, applied

    def _run_round(self, frame_id, rep, input_tensor, clean):
        release = self.now
        r = frame_id * self.cfg.workload.repetitions_per_frame + rep  # the run's index of this round
        head = f'"kind":"verdict","frame_id":{frame_id},"repetition":{rep},"release_ns":{release}'
        try:
            barrier = distribute_input(
                frame_id,
                release,
                self.healthy_ids,
                self.coupling,
                [self.feed_pairs[rid] for rid in self.healthy_ids],
                r,
            )
        except NoHealthyReplicas:
            self._finish_round(frame_id, rep, head + ',"delivery_ns":[]', clean, None,
                               Verdict.degraded("no healthy replicas"), divergence=None, deadline=release)
            return

        deliveries = barrier.deliveries
        head += f',"delivery_ns":{_ids([t - release for _, t in deliveries])}'
        completions = []
        now = release
        arrivals = []
        outputs = {}
        any_applied = False
        for rid, t_deliver in sorted(deliveries, key=lambda d: d[1]):
            out, cycles, trace, digest, classification, effects, applied = self._compute(
                rid, frame_id, input_tensor, clean)
            any_applied |= applied
            jitter, host_seeds = self.host_pairs[rid]
            t = (t_deliver + sample_turnaround_overhead(jitter, host_seeds, r)
                 + cycles_to_time(cycles, self.topology.clocks[rid]) + effects["extra_delay_ns"])
            if not release <= t_deliver <= t:
                raise SimulationError(f"replica {rid}, frame {frame_id}: time runs backwards")
            now = max(now, t)
            if not effects["drop"]:
                turnaround = t - release
                arrivals.append((rid, t + self.clock_offsets[rid] - self.ptp_corrections[rid]))
                outputs[rid] = _Output(rid, frame_id, out, classification, digest, cycles, t, trace)
                self.samples[rid].append(turnaround)
                self.prev_output[rid] = out
                body = f'"kind":"completion","replica_id":{rid},"turnaround_ns":{turnaround}'
                if digest != clean[3]:
                    body += f',"digest":{digest},"classification":{classification}'
                completions.append((t, rid, body))
        self.now = now
        for t, _, body in sorted(completions):
            self._write(t, body)

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
                    div = _compare_bus_traces(
                        ref.trace, outputs[rid].trace, self.coupling.skew_tolerance_cycles
                    )
                    if div is not None:
                        divergence = (ids[0], rid, div)
                        break

        present_outputs = [outputs[rid] for rid in sorted(outputs)]
        verdict = vote(present_outputs, self.topology.policy, self.topology.comparator, outcome)
        self._finish_round(frame_id, rep, head, clean, outcome, verdict, divergence, deadline)

        if any_applied:
            self.faults["injected"] += 1
            if verdict.variant != PASS:
                self.faults["detected"] += 1
            elif verdict.agreed.digest == clean[3]:
                self.faults["masked_pass"] += 1
            else:
                self.faults["corrupted_pass"] += 1

    def _finish_round(self, frame_id, rep, head, clean, outcome, verdict, divergence, deadline):
        t_record = max(deadline, self.now)
        self.now = t_record
        if isinstance(outcome, Complete):
            self.skews.append(outcome.skew_ns)
        if divergence is not None:
            self.bus["divergences"] += 1
        self.verdict_counts[verdict.variant] += 1
        new_state, action = step_safety(self.safety, verdict)

        v = head + f',"digest":{clean[3]},"classification":{clean[4]}'
        if isinstance(outcome, Complete):
            v += f',"rendezvous":"complete","skew_ns":{outcome.skew_ns}'
        elif outcome is not None:
            v += (f',"rendezvous":"timeout","present_ids":{_ids(outcome.present_ids)},'
                  f'"missing_ids":{_ids(outcome.missing_ids)}')
        if divergence is not None:
            rid_a, rid_b, div = divergence
            v += f',"bus_divergence":{{"replica_a":{rid_a},"replica_b":{rid_b},"event_index":{div.event_index}}}'
        v += f',"variant":"{verdict.variant}"'
        if verdict.variant == PASS and (list(verdict.agreeing_ids) != self.healthy_ids
                                        or verdict.agreed.digest != clean[3]):
            v += f',"agreeing_ids":{_ids(verdict.agreeing_ids)},"agreed_digest":{verdict.agreed.digest}'
        elif verdict.variant == "mismatch":
            v += ',"groups":[' + ",".join(_ids(g) for g in verdict.groups) + "]"
        elif verdict.variant == "degraded":
            v += f',"reason":{json.dumps(verdict.reason)}'
        # a timeout verdict's missing ids are its rendezvous's, written above
        v += (f',"state":"{new_state.state}","action":"{action}",'
              f'"consecutive_faults":{new_state.consecutive_fault_count}')
        self._write(t_record, v)

        if new_state.state != self.safety.state:
            self.safety_timeline.append(
                {"t_ns": t_record, "frame_id": frame_id, "repetition": rep,
                 "from": self.safety.state, "to": new_state.state}
            )
        self.safety = new_state

    def _sync_clocks(self):
        s = self.topology.ptp
        for rid in range(self.topology.replica_count):
            forward = s.link_delay_ns + s.asymmetry_ns
            exchange = simulate_ptp_exchange(
                self.now, self.clock_offsets[rid], forward, s.link_delay_ns,
                s.slave_turnaround_ns,
            )
            offset, delay = estimate_ptp_offset(exchange)
            self.ptp_corrections[rid] = offset
            self.ptp_info.append({"replica_id": rid, "offset_ns": offset, "path_delay_ns": delay})
            self._write(self.now, f'"kind":"ptp","replica_id":{rid},"offset_ns":{offset},"path_delay_ns":{delay}')

    def run(self):
        wl = self.cfg.workload
        # every frame's inference takes the same cycles
        cycles = _infer(self.weights, _gen_frame(self.cfg.seed, 0, wl.input_shape), self.engine)[1]
        config_digest = fnv1a64(json.dumps(self.cfg.to_json_dict(), separators=(",", ":")).encode("utf-8"))
        self._write(0, f'"kind":"header","schema_version":3,"package_version":"{__version__}",'
                       f'"seed":{self.cfg.seed},"config_digest":{config_digest},'
                       f'"replica_ids":{_ids(self.healthy_ids)},"compute_cycles":{cycles},'
                       f'"required_agreement":{self.topology.policy.required_agreement}')
        if self.topology.ptp.enabled:
            self._sync_clocks()
        for frame_id in range(wl.frame_count):
            input_tensor = _gen_frame(self.cfg.seed, frame_id, wl.input_shape)
            out, cycles, trace = _infer(self.weights, input_tensor, self.engine)
            clean = (out, cycles, trace, _digest(out), _argmax(out))
            for rep in range(wl.repetitions_per_frame):
                self._run_round(frame_id, rep, input_tensor, clean)
        return self._build_report()

    def _build_report(self):
        prof = self.cfg.profiler
        replicas = [
            {
                "replica_id": rid,
                "samples": xs,
                "stats": stats(xs) if xs else None,
                "outliers": scalar_detect_outliers(xs, prof.outlier_threshold) if len(xs) >= 3 else None,
                "histogram": scalar_histogram(xs, prof.bin_count),
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
        return {
            "schema_version": 1,
            "config": self.cfg.to_json_dict(),
            "replicas": replicas,
            "verdict_counts": self.verdict_counts,
            "safety": {"final_state": self.safety.state, "timeline": self.safety_timeline},
            "faults": self.faults,
            "skew_ns": skew,
            "bus": self.bus,
            "ptp": self.ptp_info,
        }


def run_reference(cfg):
    """(trace.jsonl text, report.json dict) of one experiment config, from
    the frozen scalar runner."""
    runner = _ReferenceRunner(cfg)
    report = runner.run()
    return "".join(runner.lines), report
