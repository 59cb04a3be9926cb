"""Experiment configuration: one field table drives validation, defaults
and the expanded dump.

Configs are plain JSON. Validation is total: every problem is collected
with its field path and reported at once in one ConfigError, and unknown
fields are rejected. `load_config` / `config_from_dict` return a fully
expanded ExperimentConfig (presets resolved, defaults filled), and its
`to_json_dict` writes that expansion back.

`_FIELDS` describes every flat config class, one row per field in JSON key
order: `(field, type, minimum, maximum)`. A type is `int`, `float` (any
finite JSON number, kept as a float), `bool`, `list` (a non-empty JSON list
of integers, kept as a tuple; the bounds apply to each element) or a tagged
object. Bounds are inclusive; `None` is unbounded. A field's default is its
dataclass default, and a field without one is required. The one exception,
in `_DEFAULT_OVERRIDES`: a config's engine starts its pipeline at 64
cycles, a bare `EngineConfig()` at 0. `_parse(cls, obj, path, errors)`
builds any class of the table and `_dump(obj)` writes it back.

A tagged object is a `(tag key, {tag value: class})` pair: the tag's value
picks the class, and the dump writes the tag first. There are four: the
coupling (`mode`), the comparator (`kind`), a fault's kind (`type`) and
its trigger (`type`).

Checks across fields stay hand-written: the replica count against the
policy and per-replica lists, tight coupling against the shared clock and
bus compare, `clock` against `clocks`, health, clock offsets, the PTP
forward delay, and the input shape and fault indices against the workload.

Seed priority: explicit override (CLI flag) > config file > the
LOCKSTEP_SEED environment variable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from . import faults as flt
from .coupling import Loose, Tight
from .errors import ConfigError
from .eventsim import ClockDomain, JitterModel
from .replica import HEALTH_STATES, HEALTHY, MAX_LAYER_WIDTH, EngineConfig
from .voting import Exact, Tolerance, VotingPolicy

SEED_ENV_VAR = "LOCKSTEP_SEED"

# Presets list only what differs from the defaults.
_PRESETS = {
    "gpu-duplex-loose": {
        "replicas": 2,
        # generous window: the preset's own jitter tail must not trip the checker
        "coupling": {"mode": "loose", "rendezvous_window_ns": 20_000_000},
        "clock": {"freq_hz": 998_000_000},
        "feed_jitter": {"base_overhead_ns": 5_000, "spike_prob": 0.01, "spike_scale_ns": 150_000},
        "host_jitter": {"base_overhead_ns": 20_000, "spike_prob": 0.02, "spike_scale_ns": 400_000,
                        "mode2_offset_ns": 60_000, "mode2_prob": 0.15},
    },
    "fpga-duplex-tight": {
        "replicas": 2,
        "coupling": {"mode": "tight"},
        "clock": {"freq_hz": 210_000_000},
    },
}


@dataclass
class PtpSettings:
    enabled: bool = False
    link_delay_ns: int = 500
    asymmetry_ns: int = 0
    slave_turnaround_ns: int = 50


@dataclass
class Topology:
    replica_count: int
    clocks: list            # ClockDomain per replica
    shared_clock: bool
    coupling: object        # Tight | Loose
    policy: VotingPolicy
    comparator: object      # Exact | Tolerance
    debounce_threshold: int
    engine: EngineConfig
    feed_jitter: list       # JitterModel per replica
    host_jitter: list
    clock_offsets_ns: list
    health: list
    ptp: PtpSettings
    bus_trace_compare: bool


@dataclass
class Workload:
    frame_count: int = 500
    repetitions_per_frame: int = 100
    input_shape: tuple = (16,)
    arch: tuple = (16, 16, 8)


@dataclass
class ProfilerSettings:
    bin_count: int = 50
    outlier_threshold: float = 3.5
    alpha: float = 0.01


# The KS significance level accepted from a config or by `compare_runs`.
ALPHA_BOUNDS = (1e-9, 0.5)

# (field, type, minimum, maximum) per flat config class, in JSON key order.
_FIELDS = {
    Tight: (("skew_tolerance_cycles", int, 0, None),),
    Loose: (("rendezvous_window_ns", int, 1, None),),
    Exact: (),
    Tolerance: (("eps", float, 0.0, None),),
    VotingPolicy: (("m", int, 1, 8), ("n", int, 1, 8)),
    ClockDomain: (("freq_hz", int, 1, None), ("drift_ppm", int, -(10**6) + 1, None)),
    EngineConfig: (
        ("cycles_per_mac", int, 1, None),
        ("cycles_per_load", int, 1, None),
        ("cycles_per_store", int, 1, None),
        ("pipeline_startup_cycles", int, 0, None),
    ),
    JitterModel: (
        ("base_overhead_ns", int, 0, None),
        ("spike_prob", float, 0.0, 1.0),
        ("spike_scale_ns", int, 1, None),
        ("mode2_offset_ns", int, 0, None),
        ("mode2_prob", float, 0.0, 1.0),
    ),
    PtpSettings: (
        ("enabled", bool, None, None),
        ("link_delay_ns", int, 0, None),
        ("asymmetry_ns", int, None, None),
        ("slave_turnaround_ns", int, 0, None),
    ),
    Workload: (
        ("frame_count", int, 1, None),
        ("repetitions_per_frame", int, 1, None),
        ("input_shape", list, 1, None),
        ("arch", list, 1, MAX_LAYER_WIDTH),
    ),
    ProfilerSettings: (
        ("bin_count", int, 1, None),
        ("outlier_threshold", float, 0.0, None),
        ("alpha", float, *ALPHA_BOUNDS),
    ),
    flt.WeightBitFlip: (("layer", int, 0, None), ("element_index", int, 0, None), ("bit", int, 0, 15)),
    flt.OutputBitFlip: (("element_index", int, 0, None), ("bit", int, 0, 15)),
    flt.ExtraDelay: (("ns", int, 0, None),),
    flt.DropOutput: (), flt.StuckOutput: (), flt.Always: (),
    flt.OnFrame: (("frame_id", int, 0, None),),
    flt.WithProbability: (("p", float, 0.0, 1.0),),
}

_DEFAULT_OVERRIDES = {(EngineConfig, "pipeline_startup_cycles"): 64}

_DEFAULTS = {
    cls: {f.name: _DEFAULT_OVERRIDES.get((cls, f.name), f.default)
          for f in fields(cls) if f.default is not MISSING}
    for cls in _FIELDS
}

_COUPLING = ("mode", {"tight": Tight, "loose": Loose})
_COMPARATOR = ("kind", {"exact": Exact, "tolerance": Tolerance})
_FAULT_KIND = ("type", {
    "weight_bit_flip": flt.WeightBitFlip, "output_bit_flip": flt.OutputBitFlip,
    "extra_delay": flt.ExtraDelay, "drop_output": flt.DropOutput, "stuck_output": flt.StuckOutput,
})
_TRIGGER = ("type", {"always": flt.Always, "on_frame": flt.OnFrame, "with_probability": flt.WithProbability})

_TAG_OF = {cls: (tag, name) for tag, classes in (_COUPLING, _COMPARATOR, _FAULT_KIND, _TRIGGER)
           for name, cls in classes.items()}


def _dump(obj) -> dict:
    """JSON object of one config object of the table, its tag (if any) first."""
    tag = _TAG_OF.get(type(obj))
    out = {tag[0]: tag[1]} if tag else {}
    for name, typ, _, _ in _FIELDS[type(obj)]:
        v = getattr(obj, name)
        out[name] = list(v) if typ is list else v
    return out


@dataclass
class ExperimentConfig:
    seed: int
    topology: Topology
    workload: Workload
    faults: list            # (replica_id, FaultSpec) pairs
    profiler: ProfilerSettings
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Fully expanded config (presets resolved, defaults filled)."""
        topo = self.topology
        return {
            "seed": self.seed,
            "topology": {
                "replicas": topo.replica_count,
                "coupling": _dump(topo.coupling),
                "voter": {
                    "policy": str(topo.policy),
                    "comparator": _dump(topo.comparator),
                    "debounce_threshold": topo.debounce_threshold,
                },
                "shared_clock": topo.shared_clock,
                "clocks": [_dump(c) for c in topo.clocks],
                "engine": _dump(topo.engine),
                "feed_jitter": [_dump(j) for j in topo.feed_jitter],
                "host_jitter": [_dump(j) for j in topo.host_jitter],
                "clock_offsets_ns": list(topo.clock_offsets_ns),
                "health": list(topo.health),
                "ptp": _dump(topo.ptp),
                "bus_trace_compare": topo.bus_trace_compare,
            },
            "workload": _dump(self.workload),
            "faults": [
                {"replica_id": rid, "kind": _dump(spec.kind), "trigger": _dump(spec.trigger)}
                for rid, spec in self.faults
            ],
            "profiler": _dump(self.profiler),
            "metadata": dict(self.metadata),
        }


_REQUIRED = object()


def _check_keys(obj, allowed, path, errors) -> bool:
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected an object")
        return False
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown field")
    return True


def _check(v, typ, minimum, maximum, path, errors):
    """`v` as a value of one table row, or None after recording why not."""
    if isinstance(typ, tuple):  # a tagged object: (tag key, {tag value: class})
        tag, classes = typ
        if not isinstance(v, dict):
            errors.append(f"{path}: expected an object")
            return None
        name = v.get(tag)
        if not isinstance(name, str) or name not in classes:
            errors.append(f"{path}.{tag}: expected one of {', '.join(map(repr, classes))}, got {name!r}")
            return None
        return _parse(classes[name], {k: x for k, x in v.items() if k != tag}, path, errors)
    if typ is bool:
        if isinstance(v, bool):
            return v
        errors.append(f"{path}: expected true/false, got {v!r}")
        return None
    if typ is list:
        if not isinstance(v, list) or not v:
            errors.append(f"{path}: expected a non-empty list of integers, got {v!r}")
            return None
        items = [_check(x, int, minimum, maximum, f"{path}[{i}]", errors) for i, x in enumerate(v)]
        return None if None in items else tuple(items)
    if isinstance(v, bool) or not isinstance(v, int if typ is int else (int, float)):
        errors.append(f"{path}: expected {'an integer' if typ is int else 'a number'}, got {v!r}")
        return None
    if typ is float:
        if isinstance(v, float) and not math.isfinite(v):
            errors.append(f"{path}: must be finite, got {v}")
            return None
        try:
            f = float(v)
        except OverflowError:
            errors.append(f"{path}: must be finite, got an integer too large for a float")
            return None
    if minimum is not None and v < minimum:
        errors.append(f"{path}: must be >= {minimum}, got {v}")
        return None
    if maximum is not None and v > maximum:
        errors.append(f"{path}: must be <= {maximum}, got {v}")
        return None
    return f if typ is float else v


def _get(obj, key, typ, path, errors, default=_REQUIRED, minimum=None, maximum=None):
    """`obj[key]` checked by `_check`; `default` if absent, else an error."""
    if key in obj:
        return _check(obj[key], typ, minimum, maximum, f"{path}.{key}", errors)
    if default is _REQUIRED:
        errors.append(f"{path}.{key}: required field missing")
        return None
    return default


def _parse(cls, obj, path, errors, **fixed):
    """A `cls` built from the JSON object `obj` by its table rows (plus
    `fixed` fields that are not in the JSON), or None after recording
    every problem."""
    rows = _FIELDS[cls]
    if not _check_keys(obj, [row[0] for row in rows], path, errors):
        return None
    count = len(errors)
    defaults = _DEFAULTS[cls]
    vals = {
        name: _get(obj, name, typ, path, errors, defaults.get(name, _REQUIRED), lo, hi)
        for name, typ, lo, hi in rows
    }
    if len(errors) > count:
        return None
    try:
        return cls(**vals, **fixed)
    except ConfigError as e:
        errors.append(f"{path}: {e}")
        return None


def _parse_policy(raw, path, errors):
    if isinstance(raw, str):
        try:
            return VotingPolicy.named(raw)
        except ConfigError as e:
            errors.append(f"{path}: {e}")
            return None
    if isinstance(raw, dict):
        return _parse(VotingPolicy, raw, path, errors)
    errors.append(f"{path}: expected a policy name like '2oo3' or an object with m and n")
    return None


def _parse_jitter(raw, key, path, errors, count) -> list:
    """One JitterModel per replica, from one object or a per-replica list."""
    value = raw.get(key, {})
    if not isinstance(value, list):
        return [_parse(JitterModel, value, f"{path}.{key}", errors)] * count
    if len(value) != count:
        errors.append(f"{path}.{key}: expected {count} entries (one per replica), got {len(value)}")
        return None
    return [_parse(JitterModel, item, f"{path}.{key}[{i}]", errors) for i, item in enumerate(value)]


_TOPOLOGY_KEYS = {
    "replicas", "coupling", "voter", "clock", "clocks", "shared_clock", "engine",
    "feed_jitter", "host_jitter", "clock_offsets_ns", "health", "ptp", "bus_trace_compare",
}


def _parse_topology(raw, path, errors) -> Topology:
    """A Topology, or None when the topology itself has an error; errors
    recorded before the call do not count."""
    errors_at_entry = len(errors)
    if isinstance(raw, str):
        if raw not in _PRESETS:
            errors.append(f"{path}: unknown preset {raw!r}; known presets: {', '.join(_PRESETS)}")
            return None
        raw = _PRESETS[raw]
    if not _check_keys(raw, _TOPOLOGY_KEYS, path, errors):
        return None

    count = _get(raw, "replicas", int, path, errors, minimum=1, maximum=8)
    if count is None:
        return None

    coupling = _get(raw, "coupling", _COUPLING, path, errors)
    tight = isinstance(coupling, Tight)

    voter = raw.get("voter", {})
    policy = comparator = None
    debounce = 1
    if _check_keys(voter, {"policy", "comparator", "debounce_threshold"}, f"{path}.voter", errors):
        policy = _parse_policy(voter.get("policy", "1oo2"), f"{path}.voter.policy", errors)
        comparator = _get(voter, "comparator", _COMPARATOR, f"{path}.voter", errors, Exact())
        debounce = _get(voter, "debounce_threshold", int, f"{path}.voter", errors, 1, minimum=1)

    if policy is not None and policy.n != count:
        errors.append(f"{path}.voter.policy: policy {policy} does not match {count} replica(s)")

    shared = _get(raw, "shared_clock", bool, path, errors, tight)
    if tight and shared is False:
        errors.append(f"{path}.shared_clock: tight coupling requires a shared clock")

    clocks = None
    if "clock" in raw and "clocks" in raw:
        errors.append(f"{path}: give either 'clock' or 'clocks', not both")
    elif "clocks" in raw:
        raw_clocks = raw["clocks"]
        if not isinstance(raw_clocks, list) or len(raw_clocks) != count:
            errors.append(f"{path}.clocks: expected a list of {count} clock objects")
        else:
            clocks = [
                _parse(ClockDomain, c, f"{path}.clocks[{i}]", errors, id=f"replica{i}")
                for i, c in enumerate(raw_clocks)
            ]
            if shared and len({(c.freq_hz, c.drift_ppm) for c in clocks if c}) > 1:
                errors.append(f"{path}.clocks: shared_clock requires identical clock parameters")
    else:
        clock_raw = raw.get("clock", {"freq_hz": 1_000_000_000})
        one = _parse(ClockDomain, clock_raw, f"{path}.clock", errors, id="shared" if shared else "replica")
        if one is not None:
            clocks = [one] * count if shared else [replace(one, id=f"replica{i}") for i in range(count)]

    engine = _parse(EngineConfig, raw.get("engine", {}), f"{path}.engine", errors)
    feed = _parse_jitter(raw, "feed_jitter", path, errors, count)
    host = _parse_jitter(raw, "host_jitter", path, errors, count)

    offsets = raw.get("clock_offsets_ns", [0] * count)
    if not isinstance(offsets, list) or len(offsets) != count or any(
        isinstance(v, bool) or not isinstance(v, int) for v in offsets
    ):
        errors.append(f"{path}.clock_offsets_ns: expected a list of {count} integers")

    health = raw.get("health", [HEALTHY] * count)
    if not isinstance(health, list) or len(health) != count:
        errors.append(f"{path}.health: expected a list of {count} states")
    else:
        for i, h in enumerate(health):
            if h not in HEALTH_STATES:
                errors.append(f"{path}.health[{i}]: unknown state {h!r}; one of {', '.join(HEALTH_STATES)}")

    ptp = _parse(PtpSettings, raw.get("ptp", {}), f"{path}.ptp", errors)
    if ptp is not None and ptp.enabled and ptp.link_delay_ns + ptp.asymmetry_ns < 0:
        # the master-to-slave delay is link_delay_ns + asymmetry_ns
        errors.append(
            f"{path}.ptp.asymmetry_ns: must be >= -link_delay_ns = {-ptp.link_delay_ns} "
            f"when ptp is enabled, got {ptp.asymmetry_ns}"
        )

    bus = _get(raw, "bus_trace_compare", bool, path, errors, tight)
    if bus and isinstance(coupling, Loose):
        errors.append(f"{path}.bus_trace_compare: bus traces are only visible under tight coupling")

    if len(errors) > errors_at_entry:
        return None
    return Topology(
        replica_count=count, clocks=clocks, shared_clock=shared, coupling=coupling,
        policy=policy, comparator=comparator, debounce_threshold=debounce, engine=engine,
        feed_jitter=feed, host_jitter=host, clock_offsets_ns=list(offsets), health=list(health),
        ptp=ptp, bus_trace_compare=bus,
    )


def _parse_workload(raw, path, errors) -> Workload:
    wl = _parse(Workload, raw, path, errors)
    if wl is None:
        return None
    if len(wl.arch) < 2:
        errors.append(f"{path}.arch: expected at least 2 layer widths, got {len(wl.arch)}")
    elif (n_in := math.prod(wl.input_shape)) != wl.arch[0]:
        errors.append(f"{path}.input_shape: {n_in} element(s) but arch expects {wl.arch[0]}")
    else:
        return wl
    return None


def _parse_fault(raw, path, errors, replica_count, workload):
    """A (replica_id, FaultSpec) pair; its indices are checked against the
    replica count and the workload's network and frame count."""
    if not _check_keys(raw, {"replica_id", "kind", "trigger"}, path, errors):
        return None
    rid = _get(raw, "replica_id", int, path, errors, minimum=0)
    if rid is not None and rid >= replica_count:
        errors.append(f"{path}.replica_id: {rid} out of range for {replica_count} replica(s)")
        rid = None
    kind = _get(raw, "kind", _FAULT_KIND, path, errors)
    trigger = _get(raw, "trigger", _TRIGGER, path, errors, flt.Always())
    if rid is None or kind is None or trigger is None:
        return None

    arch, frames = workload.arch, workload.frame_count
    if isinstance(kind, flt.WeightBitFlip):
        if kind.layer >= len(arch) - 1:
            errors.append(f"{path}.kind.layer: {kind.layer} out of range for {len(arch) - 1} layer(s)")
        elif kind.element_index >= (size := arch[kind.layer] * arch[kind.layer + 1]):
            errors.append(
                f"{path}.kind.element_index: {kind.element_index} out of range for layer of {size} weights")
    elif isinstance(kind, flt.OutputBitFlip) and kind.element_index >= arch[-1]:
        errors.append(
            f"{path}.kind.element_index: {kind.element_index} out of range for output width {arch[-1]}")
    if isinstance(trigger, flt.OnFrame) and trigger.frame_id >= frames:
        errors.append(f"{path}.trigger.frame_id: {trigger.frame_id} outside workload of {frames} frame(s)")
    return (rid, flt.FaultSpec(kind, trigger))


_TOP_LEVEL_KEYS = {"seed", "topology", "workload", "faults", "profiler", "metadata"}


def config_from_dict(obj: dict, seed_override=None, env=None) -> ExperimentConfig:
    """Validate and expand a raw config mapping.

    Raises ConfigError carrying every collected problem.
    """
    env = os.environ if env is None else env
    errors = []
    if not isinstance(obj, dict):
        raise ConfigError(["config root must be a JSON object"])
    _check_keys(obj, _TOP_LEVEL_KEYS, "config", errors)

    seed = None
    if seed_override is not None:
        seed = _check(seed_override, int, 0, None, "config.seed", errors)
    elif "seed" in obj:
        seed = _get(obj, "seed", int, "config", errors, minimum=0)
    elif env.get(SEED_ENV_VAR):
        try:
            seed = _check(int(env[SEED_ENV_VAR]), int, 0, None, "config.seed", errors)
        except ValueError:
            errors.append(f"config.seed: {SEED_ENV_VAR}={env[SEED_ENV_VAR]!r} is not an integer")
    else:
        errors.append(f"config.seed: required (set it, pass --seed, or export {SEED_ENV_VAR})")

    if "topology" not in obj:
        errors.append("config.topology: required field missing")
        topology = None
    else:
        topology = _parse_topology(obj["topology"], "config.topology", errors)

    workload = _parse_workload(obj.get("workload", {}), "config.workload", errors)

    faults = []
    raw_faults = obj.get("faults", [])
    if not isinstance(raw_faults, list):
        errors.append("config.faults: expected a list")
    elif topology is not None and workload is not None:
        for i, raw in enumerate(raw_faults):
            parsed = _parse_fault(raw, f"config.faults[{i}]", errors, topology.replica_count, workload)
            if parsed is not None:
                faults.append(parsed)

    profiler = _parse(ProfilerSettings, obj.get("profiler", {}), "config.profiler", errors)

    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        errors.append("config.metadata: expected an object")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(seed, topology, workload, faults, profiler, metadata)


def load_config(path, seed_override=None, env=None) -> ExperimentConfig:
    """Read, validate and expand a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"config file not found: {p}"])
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError([f"{p}: not valid JSON ({e})"]) from e
    return config_from_dict(obj, seed_override=seed_override, env=env)
