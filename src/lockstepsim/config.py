"""Experiment configuration: the record classes drive validation,
defaults and the expanded dump.

Configs are plain JSON. Validation is total: every problem is collected
with its field path and reported at once in one ConfigError, and unknown
fields are rejected. `load_config` / `config_from_dict` return a fully
expanded ExperimentConfig (presets resolved, defaults filled), and its
`to_json_dict` writes that expansion back.

A flat config class's JSON fields, in JSON key order, are its fields
annotated `int`, `float` (any finite JSON number, kept as a float), `bool`
or `tuple` (a non-empty JSON list of integers), each checked against the
class's `bounds` (see `record`). A field's default is its class-level
value, else it is required. `_parse(cls, obj, path, errors)` builds any
such class and `_dump(obj)` writes it back.

A tagged object is a `(tag key, {tag value: class})` pair: the tag's value
picks the class, and the dump writes the tag first. There are four: the
coupling (`mode`), the comparator (`kind`), a fault's kind (`type`) and
its trigger (`type`).

The topology's JSON shape is one table, `_TOPOLOGY_FIELDS`, which drives
its key check, parse and dump. A per-replica field takes a list of
`replicas` entries or one entry for all (`clock` for `clocks`, the same key
for a jitter; `clock_offsets_ns` and `health` only take lists).

Checks across fields stay hand-written. They run on whatever parsed, and
their errors follow the fields' own: the policy against the replica count,
tight coupling against the shared clock and bus compare, the shared clock
against unequal `clocks`, the PTP forward delay, and the input shape and
fault indices against the workload.
`metadata` is any JSON object whose numbers are all finite, nested at
most `METADATA_DEPTH` deep.

Seed priority: explicit override (CLI flag) > config file > the
LOCKSTEP_SEED environment variable.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from pathlib import Path

from . import faults as flt
from .coupling import Loose, Tight
from .errors import ConfigError
from .eventsim import ClockDomain, JitterModel
from .record import Record, bound_error
from .replica import HEALTH_STATES, HEALTHY, MAX_LAYER_WIDTH, EngineConfig
from .rng import MASK64
from .voting import Exact, Tolerance, VotingPolicy

SEED_ENV_VAR = "LOCKSTEP_SEED"
METADATA_DEPTH = 64  # objects and lists nested in `metadata`: the report writer recurses over them

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


class PtpSettings(Record, frozen=True):
    enabled: bool = False
    link_delay_ns: int = 500
    asymmetry_ns: int = 0
    slave_turnaround_ns: int = 50
    bounds = {"link_delay_ns": (0, None), "slave_turnaround_ns": (0, None)}


class Topology(Record):
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
    bounds = {"replica_count": (1, 8), "debounce_threshold": (1, None)}


class Workload(Record):
    frame_count: int = 500
    repetitions_per_frame: int = 100
    input_shape: tuple = (16,)
    arch: tuple = (16, 16, 8)
    bounds = {"frame_count": (1, None), "repetitions_per_frame": (1, None), "input_shape": (1, None),
              "arch": (1, MAX_LAYER_WIDTH)}


# The most histogram bins a config may ask for: every bin is a row of the
# report and of the CSV, and 10**9 of them would take gigabytes.
MAX_BIN_COUNT = 10_000


class ProfilerSettings(Record):
    bin_count: int = 50
    outlier_threshold: float = 3.5
    bounds = {"bin_count": (1, MAX_BIN_COUNT), "outlier_threshold": (0.0, None)}


_COUPLING = ("mode", {"tight": Tight, "loose": Loose})
_COMPARATOR = ("kind", {"exact": Exact, "tolerance": Tolerance})
_FAULT_KIND = ("type", {
    "weight_bit_flip": flt.WeightBitFlip, "output_bit_flip": flt.OutputBitFlip,
    "extra_delay": flt.ExtraDelay, "drop_output": flt.DropOutput, "stuck_output": flt.StuckOutput,
})
_TRIGGER = ("type", {"always": flt.Always, "on_frame": flt.OnFrame, "with_probability": flt.WithProbability})

_TAG_OF = {cls: (tag, name) for tag, classes in (_COUPLING, _COMPARATOR, _FAULT_KIND, _TRIGGER)
           for name, cls in classes.items()}


_REQUIRED = object()
_TIGHT = object()  # a default: true under tight coupling

# A JSON field: its key path ("voter.policy" is `policy` in the `voter`
# object), attribute, element type as `_check` takes it and default
# (`_REQUIRED`, `_TIGHT` or a parsed value). A per-replica field is a list of
# `replicas` entries, or one entry for all under the key `single` if it has one.
_Field = namedtuple("_Field", "key attr typ default per_replica single", defaults=(_REQUIRED, False, None))


def _json_fields(cls) -> list:
    """A `_Field` per JSON field of `cls`, in key order, from its string annotations."""
    types = {"int": int, "float": float, "bool": bool, "tuple": tuple}
    return [_Field(name, name, types[t], getattr(cls, name, _REQUIRED))
            for name, t in cls.__annotations__.items() if t in types]


def _dump_value(typ, v):
    """JSON value of `v`, parsed by `_check` as `typ`; a parse function's value dumps as its str."""
    if callable(typ) and not isinstance(typ, type):
        return str(v)
    return _dump(v) if isinstance(v, Record) else list(v) if isinstance(v, tuple) else v


def _dump(obj, fields=None) -> dict:
    """JSON object of `obj` by its `fields` (a flat config object's by
    default), its tag (if any) first."""
    tag = _TAG_OF.get(type(obj))
    out = {tag[0]: tag[1]} if tag else {}
    for f in fields or _json_fields(type(obj)):
        parent, _, key = f.key.rpartition(".")
        v = getattr(obj, f.attr)
        node = out.setdefault(parent, {}) if parent else out
        node[key] = [_dump_value(f.typ, x) for x in v] if f.per_replica else _dump_value(f.typ, v)
    return out


class ExperimentConfig(Record):
    seed: int
    topology: Topology
    workload: Workload
    faults: list            # (replica_id, FaultSpec) pairs
    profiler: ProfilerSettings
    metadata: dict = None

    def __post_init__(self):  # a fresh {} per config when not given
        self.metadata = {} if self.metadata is None else self.metadata

    def to_json_dict(self) -> dict:
        """Fully expanded config (presets resolved, defaults filled)."""
        return {
            "seed": self.seed,
            "topology": _dump(self.topology, _TOPOLOGY_FIELDS),
            "workload": _dump(self.workload),
            "faults": [
                {"replica_id": rid, "kind": _dump(spec.kind), "trigger": _dump(spec.trigger)}
                for rid, spec in self.faults
            ],
            "profiler": _dump(self.profiler),
            "metadata": dict(self.metadata),
        }


def _check_keys(obj, allowed, path, errors) -> bool:
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected an object")
        return False
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown field")
    return True


def _check(v, typ, bound, path, errors):
    """`v` as a value of type `typ` within `bound` (a `bound_error` pair or
    None), or None after recording why not. `typ` is `int`, `float`, `bool`,
    `tuple`, a flat config class, a tagged object or a parse function
    `(v, path, errors)`."""
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
    if not isinstance(typ, type):
        return typ(v, path, errors)
    if issubclass(typ, Record):
        return _parse(typ, v, path, errors)
    if typ is bool:
        if isinstance(v, bool):
            return v
        errors.append(f"{path}: expected true/false, got {v!r}")
        return None
    if typ is tuple:
        if not isinstance(v, list) or not v:
            errors.append(f"{path}: expected a non-empty list of integers, got {v!r}")
            return None
        items = [_check(x, int, bound, f"{path}[{i}]", errors) for i, x in enumerate(v)]
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
    if bound is not None and (error := bound_error(v, bound)):
        errors.append(f"{path}: {error}")
        return None
    return f if typ is float else v


def _get(obj, key, typ, path, errors, default=_REQUIRED, bound=None):
    """`obj[key]` checked by `_check`; `default` if absent, else an error."""
    if key in obj:
        return _check(obj[key], typ, bound, f"{path}.{key}", errors)
    if default is _REQUIRED:
        errors.append(f"{path}.{key}: required field missing")
        return None
    return default


def _parse(cls, obj, path, errors):
    """A `cls` built from the JSON object `obj` by its JSON fields, or None
    after recording every problem."""
    fields = _json_fields(cls)
    if not _check_keys(obj, [f.key for f in fields], path, errors):
        return None
    count = len(errors)
    vals = {f.attr: _get(obj, f.key, f.typ, path, errors, f.default, cls.bounds.get(f.attr)) for f in fields}
    if len(errors) > count:
        return None
    try:
        return cls(**vals)
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


def _parse_health(raw, path, errors):
    if raw in HEALTH_STATES:
        return raw
    errors.append(f"{path}: unknown state {raw!r}; one of {', '.join(HEALTH_STATES)}")
    return None


# The topology's fields, in JSON key order.
_TOPOLOGY_FIELDS = (
    _Field("replicas", "replica_count", int),
    _Field("coupling", "coupling", _COUPLING),
    _Field("voter.policy", "policy", _parse_policy, VotingPolicy(1, 2)),
    _Field("voter.comparator", "comparator", _COMPARATOR, Exact()),
    _Field("voter.debounce_threshold", "debounce_threshold", int, 1),
    _Field("shared_clock", "shared_clock", bool, _TIGHT),
    _Field("clocks", "clocks", ClockDomain, ClockDomain(1_000_000_000), True, "clock"),
    _Field("engine", "engine", EngineConfig, EngineConfig()),
    _Field("feed_jitter", "feed_jitter", JitterModel, JitterModel(), True, "feed_jitter"),
    _Field("host_jitter", "host_jitter", JitterModel, JitterModel(), True, "host_jitter"),
    _Field("clock_offsets_ns", "clock_offsets_ns", int, 0, True),
    _Field("health", "health", _parse_health, HEALTHY, True),
    _Field("ptp", "ptp", PtpSettings, PtpSettings()),
    _Field("bus_trace_compare", "bus_trace_compare", bool, _TIGHT),
)

_TOPOLOGY_KEYS = {  # the allowed keys of the topology ("") and of its voter
    "": {f.key.split(".")[0] for f in _TOPOLOGY_FIELDS} | {f.single for f in _TOPOLOGY_FIELDS if f.single},
    "voter": {f.key.partition(".")[2] for f in _TOPOLOGY_FIELDS if f.key.startswith("voter.")},
}


def _get_per_replica(obj, f, count, path, errors) -> list:
    """`count` entries of the per-replica field `f`: a list under its key,
    else one entry for all under `f.single`, else the default; None after a
    shape error, and a None entry for each bad one."""
    key = f.key
    if f.single not in (None, key) and f.single in obj and key in obj:
        errors.append(f"{path}: give either {f.single!r} or {key!r}, not both")
        return None
    if key in obj and (f.single != key or isinstance(obj[key], list)):
        items = obj[key]
        if not isinstance(items, list) or len(items) != count:
            errors.append(f"{path}.{key}: expected a list of {count} entries (one per replica)")
            return None
        return [_check(x, f.typ, None, f"{path}.{key}[{i}]", errors) for i, x in enumerate(items)]
    return [_get(obj, f.single, f.typ, path, errors, f.default) if f.single else f.default] * count


def _parse_topology(raw, path, errors) -> Topology:
    """A Topology, or None when the topology itself has an error; errors
    recorded before the call do not count."""
    errors_at_entry = len(errors)
    if isinstance(raw, str):
        if raw not in _PRESETS:
            errors.append(f"{path}: unknown preset {raw!r}; known presets: {', '.join(_PRESETS)}")
            return None
        raw = _PRESETS[raw]
    if not _check_keys(raw, _TOPOLOGY_KEYS[""], path, errors):
        return None

    objs, vals = {"": raw}, {}
    for f in _TOPOLOGY_FIELDS:
        parent, _, key = f.key.rpartition(".")
        where = f"{path}.{parent}" if parent else path
        if parent not in objs:  # a nested object, checked at its first field
            obj = raw.get(parent, {})
            objs[parent] = obj if _check_keys(obj, _TOPOLOGY_KEYS[parent], where, errors) else None
        if (obj := objs[parent]) is None:
            vals[f.attr] = None
        elif f.per_replica:
            vals[f.attr] = _get_per_replica(obj, f, vals["replica_count"], where, errors)
        else:
            default = isinstance(vals.get("coupling"), Tight) if f.default is _TIGHT else f.default
            vals[f.attr] = _get(obj, key, f.typ, where, errors, default, Topology.bounds.get(f.attr))
        if vals["replica_count"] is None:
            return None  # the per-replica fields need the count

    count, policy, coupling, shared, ptp = map(
        vals.get, ("replica_count", "policy", "coupling", "shared_clock", "ptp"))
    if policy is not None and policy.n != count:
        errors.append(f"{path}.voter.policy: policy {policy} does not match {count} replica(s)")
    if isinstance(coupling, Tight) and shared is False:
        errors.append(f"{path}.shared_clock: tight coupling requires a shared clock")
    if shared and vals["clocks"] and len(set(vals["clocks"]) - {None}) > 1:
        errors.append(f"{path}.clocks: shared_clock requires identical clock parameters")
    if ptp is not None and ptp.enabled and ptp.link_delay_ns + ptp.asymmetry_ns < 0:
        # the master-to-slave delay is link_delay_ns + asymmetry_ns
        errors.append(
            f"{path}.ptp.asymmetry_ns: must be >= -link_delay_ns = {-ptp.link_delay_ns} "
            f"when ptp is enabled, got {ptp.asymmetry_ns}"
        )
    if vals["bus_trace_compare"] and isinstance(coupling, Loose):
        errors.append(f"{path}.bus_trace_compare: bus traces are only visible under tight coupling")

    if len(errors) > errors_at_entry:
        return None
    return Topology(**vals)


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
    rid = _get(raw, "replica_id", int, path, errors, bound=(0, None))
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


def _check_finite(node, path, errors, depth=METADATA_DEPTH):
    """Record each NaN or +-Infinity under the JSON value `node`, and an
    object or list nested more than `depth` deep, with its path."""
    if isinstance(node, float) and not math.isfinite(node):
        errors.append(f"{path}: must be finite, got {node}")
    elif isinstance(node, (dict, list)) and not depth:
        errors.append(f"{path}: nested deeper than {METADATA_DEPTH} objects and lists")
    elif isinstance(node, (dict, list)):
        for key, v in node.items() if isinstance(node, dict) else enumerate(node):
            _check_finite(v, f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]", errors, depth - 1)


def config_from_dict(obj: dict, seed_override=None, env=None) -> ExperimentConfig:
    """Validate and expand a raw config mapping.

    Raises ConfigError carrying every collected problem.
    """
    env = os.environ if env is None else env
    errors = []
    if not isinstance(obj, dict):
        raise ConfigError(["config root must be a JSON object"])
    _check_keys(obj, ExperimentConfig.field_names, "config", errors)

    # seeds are 64-bit: a larger one would run as its value modulo 2**64
    seed, seed_bound = None, (0, MASK64)
    if seed_override is not None:
        seed = _check(seed_override, int, seed_bound, "config.seed", errors)
    elif "seed" in obj:
        seed = _get(obj, "seed", int, "config", errors, bound=seed_bound)
    elif env.get(SEED_ENV_VAR):
        try:
            seed = _check(int(env[SEED_ENV_VAR]), int, seed_bound, "config.seed", errors)
        except ValueError:
            errors.append(f"config.seed: {SEED_ENV_VAR}={env[SEED_ENV_VAR]!r} is not an integer")
    else:
        errors.append(f"config.seed: required (set it, pass --seed, or export {SEED_ENV_VAR})")

    topology = _get(obj, "topology", _parse_topology, "config", errors)

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
    _check_finite(metadata, "config.metadata", errors)

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
    except (ValueError, RecursionError) as e:  # also bad UTF-8, too many digits and too deep nesting
        raise ConfigError([f"{p}: not valid JSON ({e})"]) from e
    return config_from_dict(obj, seed_override=seed_override, env=env)
