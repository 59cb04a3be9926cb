"""Per-layer spans recorded from outside the simulator.

A Tracer replaces public functions and methods of the lockstepsim modules
with timing wrappers at run time; the package source is not touched. Each
span keeps a call count, inclusive busy time and self time (busy time minus
the time covered by nested spans). Spans live in memory and are turned into
metrics when the run ends.

A target that no longer exists is reported absent instead of failing the
run, so one benchmark serves code bases that delete or rename functions.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types

PACKAGE = "lockstepsim"


class Span:
    __slots__ = ("calls", "busy_ns", "self_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = {}
        self.counters = {}
        self.absent = []
        self.top_level_ns = 0       # busy time of spans entered with no span open
        self.round_starts = []      # clock at each coupling.distribute_input entry
        self._stack = []
        self._undo = []

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name, on_result=None):
        """Timed wrapper around `fn`; `on_result(tracer, result, t0)` runs after it."""
        span = self.spans.setdefault(name, Span())
        clock = self.clock
        stack = self._stack
        hook = on_result

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nonlocal hook
            covered = [0]
            stack.append(covered)
            span.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_ns += dt - covered[0]
                if span.depth == 0:
                    span.busy_ns += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_ns += dt
            if hook is not None:
                try:
                    hook(self, result, t0)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # The result no longer has the shape the hook reads.
                    hook = None
                    self.absent.append(f"{name} (result hook)")
            return result

        return timed

    def counting(self, fn, name):
        """Untimed wrapper that only counts calls, for very frequent calls."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr, name, on_result=None, count_only=False):
        """Wrap `lockstepsim.<module>.<attr>` (attr may be `Class.method`).

        A plain function is replaced under every name any lockstepsim module
        binds it to, so `from .x import f` call sites see the wrapper too.
        """
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            self.absent.append(name)
            return False
        owner = mod
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None) if owner is not None else None
        if orig is None:
            self.absent.append(name)
            return False
        wrapped = self.counting(orig, name) if count_only else self.wrap(orig, name, on_result)
        if isinstance(owner, type):
            self._set(owner, leaf, wrapped)
        else:
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)
        return True

    def patch_json(self, module, dumps_name, dump_name):
        """Time `json.dumps` / `json.dump` as called from one module."""
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            mod = None
        real = getattr(mod, "json", None)
        if not isinstance(real, types.ModuleType):
            self.absent.extend([dumps_name, dump_name])
            return False
        proxy = types.SimpleNamespace(**vars(real))
        proxy.dumps = self.wrap(real.dumps, dumps_name)
        proxy.dump = self.wrap(real.dump, dump_name)
        self._set(mod, "json", proxy)
        return True

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self):
        """Undo every patch, newest first."""
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# -- result hooks: counts measured where the work happens --------------------


def _infer_cycles(tr, result, t0):
    tr.count("replica.infer.sim_cycles_total", int(result[1]))


def _drain_size(tr, result, t0):
    tr.count("eventsim.events", len(result))


def _kernel_queued(tr, result, t0):
    payload = result.payload
    if payload["start_ns"] != payload["arrival_ns"]:
        tr.count("eventsim.kernel_queued")


def _rendezvous_timeout(tr, result, t0):
    if type(result).__name__ == "Timeout":
        tr.count("coupling.rendezvous.timeouts")


def _vote_pass(tr, result, t0):
    if result.variant == "pass":
        tr.count("voting.passes")


def _fault_fired(tr, result, t0):
    if result:
        tr.count("faults.fired")


def _round_start(tr, result, t0):
    tr.round_starts.append(t0)


# (module, attribute, span name, result hook); a hook of "count" means the
# call is only counted, not timed.
TARGETS = (
    ("config", "load_config", "config.load_config", None),
    ("replica", "gen_weights", "replica.gen_weights", None),
    ("replica", "gen_frame", "replica.gen_frame", None),
    ("replica", "infer", "replica.infer", _infer_cycles),
    ("fixedpoint", "tensor_digest", "fixedpoint.tensor_digest", None),
    ("fixedpoint", "FixedPointTensor.__init__", "fixedpoint.tensor_new", None),
    ("rng", "Rng.next_u64", "rng.draws", "count"),
    ("faults", "apply_fault", "faults.apply_fault", _fault_fired),
    ("faults", "flip_weight_bits", "faults.flip_weight_bits", None),
    ("eventsim", "EventQueue.schedule", "eventsim.schedule", None),
    ("eventsim", "EventQueue.run_all", "eventsim.run_all", _drain_size),
    ("eventsim", "submit_kernel", "eventsim.submit_kernel", _kernel_queued),
    ("coupling", "distribute_input", "coupling.distribute_input", _round_start),
    ("coupling", "rendezvous", "coupling.rendezvous", _rendezvous_timeout),
    ("coupling", "compare_bus_traces", "coupling.compare_bus_traces", None),
    ("voting", "vote", "voting.vote", _vote_pass),
    ("voting", "step_safety", "voting.step_safety", None),
    ("profiling", "stats", "profiling.stats", None),
    ("profiling", "detect_outliers", "profiling.detect_outliers", None),
    ("profiling", "histogram", "profiling.histogram", None),
    ("experiment", "ExperimentRunner.run", "experiment.run", None),
)


def install(tracer: Tracer) -> Tracer:
    """Patch every target; the package must already be importable."""
    for module, attr, name, hook in TARGETS:
        if hook == "count":
            tracer.patch(module, attr, name, count_only=True)
        else:
            tracer.patch(module, attr, name, on_result=hook)
    tracer.patch_json("experiment", "experiment.trace_encode", "experiment.report_json")
    return tracer


# (metric name, unit, better); BENCHMARK.json's per_layer list is this table.
PER_LAYER = (
    ("config.load_config.busy_s", "s", "lower"),
    ("replica.gen_weights.busy_s", "s", "lower"),
    ("replica.gen_frame.calls", "count", "lower"),
    ("replica.gen_frame.busy_s", "s", "lower"),
    ("replica.infer.calls", "count", "lower"),
    ("replica.infer.busy_s", "s", "lower"),
    ("replica.infer.self_s", "s", "lower"),
    ("replica.infer.sim_cycles", "cycles", "lower"),
    ("fixedpoint.tensor_digest.calls", "count", "lower"),
    ("fixedpoint.tensor_digest.busy_s", "s", "lower"),
    ("fixedpoint.tensor_new.calls", "count", "lower"),
    ("fixedpoint.tensor_new.busy_s", "s", "lower"),
    ("rng.draws", "count", "lower"),
    ("faults.apply_fault.calls", "count", "lower"),
    ("faults.apply_fault.busy_s", "s", "lower"),
    ("faults.fired", "count", "lower"),
    ("faults.fire_ratio", "ratio", "higher"),
    ("faults.flip_weight_bits.calls", "count", "lower"),
    ("faults.flip_weight_bits.busy_s", "s", "lower"),
    ("eventsim.schedule.calls", "count", "lower"),
    ("eventsim.schedule.busy_s", "s", "lower"),
    ("eventsim.run_all.calls", "count", "lower"),
    ("eventsim.run_all.self_s", "s", "lower"),
    ("eventsim.events_per_drain", "events", "lower"),
    ("eventsim.submit_kernel.calls", "count", "lower"),
    ("eventsim.submit_kernel.busy_s", "s", "lower"),
    ("eventsim.kernel_queued", "count", "lower"),
    ("coupling.distribute_input.busy_s", "s", "lower"),
    ("coupling.rendezvous.busy_s", "s", "lower"),
    ("coupling.rendezvous.timeouts", "count", "lower"),
    ("coupling.compare_bus_traces.calls", "count", "lower"),
    ("coupling.compare_bus_traces.busy_s", "s", "lower"),
    ("voting.vote.calls", "count", "lower"),
    ("voting.vote.busy_s", "s", "lower"),
    ("voting.pass_ratio", "ratio", "higher"),
    ("voting.step_safety.busy_s", "s", "lower"),
    ("profiling.stats.busy_s", "s", "lower"),
    ("profiling.detect_outliers.busy_s", "s", "lower"),
    ("profiling.histogram.busy_s", "s", "lower"),
    ("experiment.run.self_s", "s", "lower"),
    ("experiment.round.samples", "count", "higher"),
    ("experiment.round.p50_us", "us", "lower"),
    ("experiment.round.p99_us", "us", "lower"),
    ("experiment.trace_encode.calls", "count", "lower"),
    ("experiment.trace_encode.busy_s", "s", "lower"),
    ("experiment.report_json.busy_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer: Tracer) -> dict:
    """Every PER_LAYER value except trace.overhead_ratio, which needs an
    untraced run to compare against. Absent spans read as zero."""
    out = {}
    for name, span in tracer.spans.items():
        out[f"{name}.calls"] = span.calls
        out[f"{name}.busy_s"] = span.busy_ns / 1e9
        out[f"{name}.self_s"] = span.self_ns / 1e9
    c = tracer.counters
    out["rng.draws"] = c.get("rng.draws", 0)
    out["replica.infer.sim_cycles"] = _ratio(
        c.get("replica.infer.sim_cycles_total", 0), out.get("replica.infer.calls", 0))
    out["faults.fired"] = c.get("faults.fired", 0)
    out["faults.fire_ratio"] = _ratio(out["faults.fired"], out.get("faults.apply_fault.calls", 0))
    out["eventsim.events_per_drain"] = _ratio(
        c.get("eventsim.events", 0), out.get("eventsim.run_all.calls", 0))
    out["eventsim.kernel_queued"] = c.get("eventsim.kernel_queued", 0)
    out["coupling.rendezvous.timeouts"] = c.get("coupling.rendezvous.timeouts", 0)
    out["voting.pass_ratio"] = _ratio(c.get("voting.passes", 0), out.get("voting.vote.calls", 0))
    gaps = [(b - a) / 1e3 for a, b in zip(tracer.round_starts, tracer.round_starts[1:])]
    out["experiment.round.samples"] = len(gaps)
    if len(gaps) >= 2:
        q = statistics.quantiles(gaps, n=100, method="inclusive")
        out["experiment.round.p50_us"] = q[49]
        out["experiment.round.p99_us"] = q[98]
    return {name: out.get(name, 0) for name, _unit, _better in PER_LAYER
            if name != "trace.overhead_ratio"}
