"""Experiment configuration: validation, defaults and topology presets.

Configs are plain JSON. Validation is total: every problem is collected
with its field path and reported at once, unknown fields are rejected, and
fault indices are range-checked against the workload here, never at run
time. `load_config` / `config_from_dict` return a fully-expanded
ExperimentConfig with presets resolved and defaults filled.

Seed priority: explicit override (CLI flag) > config file > the
LOCKSTEP_SEED environment variable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import faults as flt
from .coupling import Loose, Tight
from .errors import ConfigError
from .eventsim import ClockDomain, JitterModel
from .replica import HEALTH_STATES, HEALTHY, MAX_LAYER_WIDTH, EngineConfig
from .voting import Exact, Tolerance, VotingPolicy

SEED_ENV_VAR = "LOCKSTEP_SEED"

PRESET_NAMES = ("gpu-duplex-loose", "fpga-duplex-tight")

_DEFAULT_ENGINE = {
    "cycles_per_mac": 1,
    "cycles_per_load": 1,
    "cycles_per_store": 1,
    "pipeline_startup_cycles": 64,
}

_DEFAULT_JITTER = {
    "base_overhead_ns": 0,
    "spike_prob": 0.0,
    "spike_scale_ns": 1,
    "mode2_offset_ns": 0,
    "mode2_prob": 0.0,
}

_DEFAULT_WORKLOAD = {
    "frame_count": 500,
    "repetitions_per_frame": 100,
    "input_shape": [16],
    "arch": [16, 16, 8],
}

_DEFAULT_PROFILER = {
    "bin_count": 50,
    "outlier_threshold": 3.5,
    "alpha": 0.01,
}

_DEFAULT_PTP = {
    "enabled": False,
    "link_delay_ns": 500,
    "asymmetry_ns": 0,
    "slave_turnaround_ns": 50,
}


def _preset_gpu_duplex_loose() -> dict:
    return {
        "replicas": 2,
        # generous default: the preset's own jitter tail must not trip the checker
        "coupling": {"mode": "loose", "rendezvous_window_ns": 20_000_000},
        "voter": {
            "policy": "1oo2",
            "comparator": {"kind": "exact"},
            "debounce_threshold": 1,
        },
        "clock": {"freq_hz": 998_000_000, "drift_ppm": 0},
        "engine": dict(_DEFAULT_ENGINE),
        "feed_jitter": {
            "base_overhead_ns": 5_000,
            "spike_prob": 0.01,
            "spike_scale_ns": 150_000,
            "mode2_offset_ns": 0,
            "mode2_prob": 0.0,
        },
        "host_jitter": {
            "base_overhead_ns": 20_000,
            "spike_prob": 0.02,
            "spike_scale_ns": 400_000,
            "mode2_offset_ns": 60_000,
            "mode2_prob": 0.15,
        },
    }


def _preset_fpga_duplex_tight() -> dict:
    return {
        "replicas": 2,
        "coupling": {"mode": "tight", "skew_tolerance_cycles": 2},
        "voter": {
            "policy": "1oo2",
            "comparator": {"kind": "exact"},
            "debounce_threshold": 1,
        },
        "clock": {"freq_hz": 210_000_000, "drift_ppm": 0},
        "shared_clock": True,
        "engine": dict(_DEFAULT_ENGINE),
        "bus_trace_compare": True,
    }


_PRESETS = {
    "gpu-duplex-loose": _preset_gpu_duplex_loose,
    "fpga-duplex-tight": _preset_fpga_duplex_tight,
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
    frame_count: int
    repetitions_per_frame: int
    input_shape: tuple
    arch: tuple


@dataclass
class ProfilerSettings:
    bin_count: int = 50
    outlier_threshold: float = 3.5
    alpha: float = 0.01


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
                "coupling": (
                    {"mode": "tight", "skew_tolerance_cycles": topo.coupling.skew_tolerance_cycles}
                    if isinstance(topo.coupling, Tight)
                    else {"mode": "loose", "rendezvous_window_ns": topo.coupling.rendezvous_window_ns}
                ),
                "voter": {
                    "policy": str(topo.policy),
                    "comparator": (
                        {"kind": "exact"}
                        if isinstance(topo.comparator, Exact)
                        else {"kind": "tolerance", "eps": topo.comparator.eps}
                    ),
                    "debounce_threshold": topo.debounce_threshold,
                },
                "shared_clock": topo.shared_clock,
                "clocks": [
                    {"freq_hz": c.freq_hz, "drift_ppm": c.drift_ppm} for c in topo.clocks
                ],
                "engine": {
                    "cycles_per_mac": topo.engine.cycles_per_mac,
                    "cycles_per_load": topo.engine.cycles_per_load,
                    "cycles_per_store": topo.engine.cycles_per_store,
                    "pipeline_startup_cycles": topo.engine.pipeline_startup_cycles,
                },
                "feed_jitter": [_jitter_dict(j) for j in topo.feed_jitter],
                "host_jitter": [_jitter_dict(j) for j in topo.host_jitter],
                "clock_offsets_ns": list(topo.clock_offsets_ns),
                "health": list(topo.health),
                "ptp": {
                    "enabled": topo.ptp.enabled,
                    "link_delay_ns": topo.ptp.link_delay_ns,
                    "asymmetry_ns": topo.ptp.asymmetry_ns,
                    "slave_turnaround_ns": topo.ptp.slave_turnaround_ns,
                },
                "bus_trace_compare": topo.bus_trace_compare,
            },
            "workload": {
                "frame_count": self.workload.frame_count,
                "repetitions_per_frame": self.workload.repetitions_per_frame,
                "input_shape": list(self.workload.input_shape),
                "arch": list(self.workload.arch),
            },
            "faults": [_fault_dict(rid, spec) for rid, spec in self.faults],
            "profiler": {
                "bin_count": self.profiler.bin_count,
                "outlier_threshold": self.profiler.outlier_threshold,
                "alpha": self.profiler.alpha,
            },
            "metadata": dict(self.metadata),
        }


def _jitter_dict(j: JitterModel) -> dict:
    return {
        "base_overhead_ns": j.base_overhead_ns,
        "spike_prob": j.spike_prob,
        "spike_scale_ns": j.spike_scale_ns,
        "mode2_offset_ns": j.mode2_offset_ns,
        "mode2_prob": j.mode2_prob,
    }


def _fault_dict(rid: int, spec: flt.FaultSpec) -> dict:
    kind = spec.kind
    if isinstance(kind, flt.WeightBitFlip):
        k = {"type": "weight_bit_flip", "layer": kind.layer, "element_index": kind.element_index, "bit": kind.bit}
    elif isinstance(kind, flt.OutputBitFlip):
        k = {"type": "output_bit_flip", "element_index": kind.element_index, "bit": kind.bit}
    elif isinstance(kind, flt.ExtraDelay):
        k = {"type": "extra_delay", "ns": kind.ns}
    elif isinstance(kind, flt.DropOutput):
        k = {"type": "drop_output"}
    else:
        k = {"type": "stuck_output"}
    trig = spec.trigger
    if isinstance(trig, flt.OnFrame):
        t = {"type": "on_frame", "frame_id": trig.frame_id}
    elif isinstance(trig, flt.WithProbability):
        t = {"type": "with_probability", "p": trig.p}
    else:
        t = {"type": "always"}
    return {"replica_id": rid, "kind": k, "trigger": t}


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_keys(obj, allowed, path, errors) -> bool:
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected an object")
        return False
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown field")
    return True


def _get_int(obj, key, path, errors, default=None, minimum=None, maximum=None):
    if key not in obj:
        if default is None:
            errors.append(f"{path}.{key}: required field missing")
            return None
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        errors.append(f"{path}.{key}: expected an integer, got {v!r}")
        return None
    if minimum is not None and v < minimum:
        errors.append(f"{path}.{key}: must be >= {minimum}, got {v}")
        return None
    if maximum is not None and v > maximum:
        errors.append(f"{path}.{key}: must be <= {maximum}, got {v}")
        return None
    return v


def _get_num(obj, key, path, errors, default=None, minimum=None, maximum=None):
    if key not in obj:
        if default is None:
            errors.append(f"{path}.{key}: required field missing")
            return None
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(f"{path}.{key}: expected a number, got {v!r}")
        return None
    if isinstance(v, float) and not math.isfinite(v):
        errors.append(f"{path}.{key}: must be finite, got {v}")
        return None
    try:
        f = float(v)
    except OverflowError:
        errors.append(f"{path}.{key}: must be finite, got an integer too large for a float")
        return None
    if minimum is not None and v < minimum:
        errors.append(f"{path}.{key}: must be >= {minimum}, got {v}")
        return None
    if maximum is not None and v > maximum:
        errors.append(f"{path}.{key}: must be <= {maximum}, got {v}")
        return None
    return f


def _get_bool(obj, key, path, errors, default):
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        errors.append(f"{path}.{key}: expected true/false, got {v!r}")
        return None
    return v


def _parse_jitter(obj, path, errors) -> JitterModel:
    merged = dict(_DEFAULT_JITTER)
    if not _check_keys(obj, set(_DEFAULT_JITTER), path, errors):
        return JitterModel()
    base = _get_int(obj, "base_overhead_ns", path, errors, default=merged["base_overhead_ns"], minimum=0)
    sp = _get_num(obj, "spike_prob", path, errors, default=merged["spike_prob"], minimum=0.0, maximum=1.0)
    ss = _get_int(obj, "spike_scale_ns", path, errors, default=merged["spike_scale_ns"], minimum=1)
    mo = _get_int(obj, "mode2_offset_ns", path, errors, default=merged["mode2_offset_ns"], minimum=0)
    mp = _get_num(obj, "mode2_prob", path, errors, default=merged["mode2_prob"], minimum=0.0, maximum=1.0)
    if None in (base, sp, ss, mo, mp):
        return JitterModel()
    return JitterModel(base, sp, ss, mo, mp)


def _parse_jitter_list(obj, key, path, errors, count) -> list:
    raw = obj.get(key)
    if raw is None:
        return [JitterModel()] * count
    if isinstance(raw, dict):
        model = _parse_jitter(raw, f"{path}.{key}", errors)
        return [model] * count
    if isinstance(raw, list):
        if len(raw) != count:
            errors.append(f"{path}.{key}: expected {count} entries (one per replica), got {len(raw)}")
            return [JitterModel()] * count
        return [
            _parse_jitter(item, f"{path}.{key}[{i}]", errors) if isinstance(item, dict)
            else (errors.append(f"{path}.{key}[{i}]: expected an object"), JitterModel())[1]
            for i, item in enumerate(raw)
        ]
    errors.append(f"{path}.{key}: expected an object or a per-replica list")
    return [JitterModel()] * count


def _parse_coupling(obj, path, errors):
    if not _check_keys(obj, {"mode", "skew_tolerance_cycles", "rendezvous_window_ns"}, path, errors):
        return None
    mode = obj.get("mode")
    if mode == "tight":
        if "rendezvous_window_ns" in obj:
            errors.append(f"{path}.rendezvous_window_ns: not a tight-coupling field")
        tol = _get_int(obj, "skew_tolerance_cycles", path, errors, default=2, minimum=0)
        return Tight(tol) if tol is not None else None
    if mode == "loose":
        if "skew_tolerance_cycles" in obj:
            errors.append(f"{path}.skew_tolerance_cycles: not a loose-coupling field")
        win = _get_int(obj, "rendezvous_window_ns", path, errors, minimum=1)
        return Loose(win) if win is not None else None
    errors.append(f"{path}.mode: expected 'tight' or 'loose', got {mode!r}")
    return None


def _parse_policy(raw, path, errors):
    if isinstance(raw, str):
        try:
            return VotingPolicy.named(raw)
        except ConfigError as e:
            errors.append(f"{path}: {e}")
            return None
    if isinstance(raw, dict):
        if not _check_keys(raw, {"m", "n"}, path, errors):
            return None
        m = _get_int(raw, "m", path, errors, minimum=1, maximum=8)
        n = _get_int(raw, "n", path, errors, minimum=1, maximum=8)
        if m is None or n is None:
            return None
        if m > n:
            errors.append(f"{path}: m must not exceed n, got {m}oo{n}")
            return None
        return VotingPolicy(m, n)
    errors.append(f"{path}: expected a policy name like '2oo3' or an object with m and n")
    return None


def _parse_comparator(obj, path, errors):
    if not _check_keys(obj, {"kind", "eps"}, path, errors):
        return None
    kind = obj.get("kind")
    if kind == "exact":
        if "eps" in obj:
            errors.append(f"{path}.eps: not an exact-comparator field")
        return Exact()
    if kind == "tolerance":
        eps = _get_num(obj, "eps", path, errors, minimum=0.0)
        return Tolerance(eps) if eps is not None else None
    errors.append(f"{path}.kind: expected 'exact' or 'tolerance', got {kind!r}")
    return None


def _parse_engine(obj, path, errors) -> EngineConfig:
    if not _check_keys(obj, set(_DEFAULT_ENGINE), path, errors):
        return EngineConfig(**_DEFAULT_ENGINE)
    vals = {}
    vals["cycles_per_mac"] = _get_int(obj, "cycles_per_mac", path, errors, default=_DEFAULT_ENGINE["cycles_per_mac"], minimum=1)
    vals["cycles_per_load"] = _get_int(obj, "cycles_per_load", path, errors, default=_DEFAULT_ENGINE["cycles_per_load"], minimum=1)
    vals["cycles_per_store"] = _get_int(obj, "cycles_per_store", path, errors, default=_DEFAULT_ENGINE["cycles_per_store"], minimum=1)
    vals["pipeline_startup_cycles"] = _get_int(obj, "pipeline_startup_cycles", path, errors, default=_DEFAULT_ENGINE["pipeline_startup_cycles"], minimum=0)
    if None in vals.values():
        return EngineConfig(**_DEFAULT_ENGINE)
    return EngineConfig(**vals)


def _parse_clock(obj, path, errors, clock_id):
    if not _check_keys(obj, {"freq_hz", "drift_ppm"}, path, errors):
        return None
    freq = _get_int(obj, "freq_hz", path, errors, minimum=1)
    drift = _get_int(obj, "drift_ppm", path, errors, default=0, minimum=-(10**6) + 1)
    if freq is None or drift is None:
        return None
    return ClockDomain(clock_id, freq, drift)


_TOPOLOGY_KEYS = {
    "replicas", "coupling", "voter", "clock", "clocks", "shared_clock", "engine",
    "feed_jitter", "host_jitter", "clock_offsets_ns", "health", "ptp", "bus_trace_compare",
}


def _parse_topology(raw, path, errors) -> Topology:
    if isinstance(raw, str):
        maker = _PRESETS.get(raw)
        if maker is None:
            errors.append(
                f"{path}: unknown preset {raw!r}; known presets: {', '.join(PRESET_NAMES)}"
            )
            return None
        raw = maker()
    if not _check_keys(raw, _TOPOLOGY_KEYS, path, errors):
        return None

    count = _get_int(raw, "replicas", path, errors, minimum=1, maximum=8)
    if count is None:
        return None

    coupling = None
    if "coupling" in raw:
        coupling = _parse_coupling(raw["coupling"], f"{path}.coupling", errors)
    else:
        errors.append(f"{path}.coupling: required field missing")

    voter_raw = raw.get("voter", {})
    policy = comparator = None
    debounce = 1
    if _check_keys(voter_raw, {"policy", "comparator", "debounce_threshold"}, f"{path}.voter", errors):
        policy = _parse_policy(voter_raw.get("policy", "1oo2"), f"{path}.voter.policy", errors)
        comparator = _parse_comparator(voter_raw.get("comparator", {"kind": "exact"}), f"{path}.voter.comparator", errors)
        debounce = _get_int(voter_raw, "debounce_threshold", f"{path}.voter", errors, default=1, minimum=1)

    if policy is not None and policy.n != count:
        errors.append(f"{path}.voter.policy: policy {policy} does not match {count} replica(s)")

    shared_default = isinstance(coupling, Tight)
    shared = _get_bool(raw, "shared_clock", path, errors, default=shared_default)
    if isinstance(coupling, Tight) and shared is False:
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
                _parse_clock(c, f"{path}.clocks[{i}]", errors, f"replica{i}")
                for i, c in enumerate(raw_clocks)
            ]
            if shared and len({(c.freq_hz, c.drift_ppm) for c in clocks if c}) > 1:
                errors.append(f"{path}.clocks: shared_clock requires identical clock parameters")
    else:
        clock_raw = raw.get("clock", {"freq_hz": 1_000_000_000, "drift_ppm": 0})
        one = _parse_clock(clock_raw, f"{path}.clock", errors, "shared" if shared else "replica")
        if one is not None:
            if shared:
                clocks = [one] * count
            else:
                clocks = [ClockDomain(f"replica{i}", one.freq_hz, one.drift_ppm) for i in range(count)]

    engine = _parse_engine(raw.get("engine", {}), f"{path}.engine", errors)
    feed = _parse_jitter_list(raw, "feed_jitter", path, errors, count)
    host = _parse_jitter_list(raw, "host_jitter", path, errors, count)

    offsets = raw.get("clock_offsets_ns", [0] * count)
    if not isinstance(offsets, list) or len(offsets) != count or any(
        isinstance(v, bool) or not isinstance(v, int) for v in offsets
    ):
        errors.append(f"{path}.clock_offsets_ns: expected a list of {count} integers")
        offsets = [0] * count

    health = raw.get("health", [HEALTHY] * count)
    if not isinstance(health, list) or len(health) != count:
        errors.append(f"{path}.health: expected a list of {count} states")
        health = [HEALTHY] * count
    else:
        for i, h in enumerate(health):
            if h not in HEALTH_STATES:
                errors.append(f"{path}.health[{i}]: unknown state {h!r}; one of {', '.join(HEALTH_STATES)}")

    ptp_raw = raw.get("ptp", {})
    ptp = PtpSettings(**_DEFAULT_PTP)
    if _check_keys(ptp_raw, set(_DEFAULT_PTP), f"{path}.ptp", errors):
        enabled = _get_bool(ptp_raw, "enabled", f"{path}.ptp", errors, default=False)
        link = _get_int(ptp_raw, "link_delay_ns", f"{path}.ptp", errors, default=_DEFAULT_PTP["link_delay_ns"], minimum=0)
        asym = _get_int(ptp_raw, "asymmetry_ns", f"{path}.ptp", errors, default=0)
        turn = _get_int(ptp_raw, "slave_turnaround_ns", f"{path}.ptp", errors, default=_DEFAULT_PTP["slave_turnaround_ns"], minimum=0)
        if None not in (enabled, link, asym, turn):
            ptp = PtpSettings(enabled, link, asym, turn)

    bus_default = isinstance(coupling, Tight)
    bus = _get_bool(raw, "bus_trace_compare", path, errors, default=bus_default)
    if bus and isinstance(coupling, Loose):
        errors.append(f"{path}.bus_trace_compare: bus traces are only visible under tight coupling")

    if errors or coupling is None or policy is None or comparator is None or clocks is None or None in clocks:
        return None
    return Topology(
        replica_count=count,
        clocks=clocks,
        shared_clock=bool(shared),
        coupling=coupling,
        policy=policy,
        comparator=comparator,
        debounce_threshold=debounce,
        engine=engine,
        feed_jitter=feed,
        host_jitter=host,
        clock_offsets_ns=list(offsets),
        health=list(health),
        ptp=ptp,
        bus_trace_compare=bool(bus),
    )


def _parse_workload(raw, path, errors) -> Workload:
    merged = dict(_DEFAULT_WORKLOAD)
    if not _check_keys(raw, set(merged), path, errors):
        raw = {}
    frames = _get_int(raw, "frame_count", path, errors, default=merged["frame_count"], minimum=1)
    reps = _get_int(raw, "repetitions_per_frame", path, errors, default=merged["repetitions_per_frame"], minimum=1)
    shape = raw.get("input_shape", merged["input_shape"])
    arch = raw.get("arch", merged["arch"])
    ok = True
    if not isinstance(shape, list) or not shape or any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in shape):
        errors.append(f"{path}.input_shape: expected a list of positive integers")
        ok = False
    if (
        not isinstance(arch, list)
        or len(arch) < 2
        or any(isinstance(w, bool) or not isinstance(w, int) or w < 1 or w > MAX_LAYER_WIDTH for w in arch)
    ):
        errors.append(
            f"{path}.arch: expected at least 2 layer widths in [1, {MAX_LAYER_WIDTH}]"
        )
        ok = False
    if ok:
        n_in = 1
        for d in shape:
            n_in *= d
        if n_in != arch[0]:
            errors.append(f"{path}.input_shape: {n_in} element(s) but arch expects {arch[0]}")
            ok = False
    if frames is None or reps is None or not ok:
        return None
    return Workload(frames, reps, tuple(shape), tuple(arch))


_FAULT_KIND_FIELDS = {
    "weight_bit_flip": {"layer", "element_index", "bit"},
    "output_bit_flip": {"element_index", "bit"},
    "extra_delay": {"ns"},
    "drop_output": set(),
    "stuck_output": set(),
}

_TRIGGER_FIELDS = {
    "always": set(),
    "on_frame": {"frame_id"},
    "with_probability": {"p"},
}


def _parse_fault(raw, path, errors, replica_count, workload):
    if not _check_keys(raw, {"replica_id", "kind", "trigger"}, path, errors):
        return None
    rid = _get_int(raw, "replica_id", path, errors, minimum=0)
    if rid is not None and rid >= replica_count:
        errors.append(f"{path}.replica_id: {rid} out of range for {replica_count} replica(s)")
        rid = None

    kind_raw = raw.get("kind")
    kind = None
    if not isinstance(kind_raw, dict) or "type" not in kind_raw:
        errors.append(f"{path}.kind: expected an object with a 'type' field")
    else:
        ktype = kind_raw["type"]
        fields = _FAULT_KIND_FIELDS.get(ktype)
        if fields is None:
            errors.append(f"{path}.kind.type: unknown fault kind {ktype!r}")
        elif _check_keys(kind_raw, fields | {"type"}, f"{path}.kind", errors):
            if ktype == "weight_bit_flip":
                layer = _get_int(kind_raw, "layer", f"{path}.kind", errors, minimum=0)
                ei = _get_int(kind_raw, "element_index", f"{path}.kind", errors, minimum=0)
                bit = _get_int(kind_raw, "bit", f"{path}.kind", errors, minimum=0, maximum=15)
                if None not in (layer, ei, bit):
                    kind = flt.WeightBitFlip(layer, ei, bit)
            elif ktype == "output_bit_flip":
                ei = _get_int(kind_raw, "element_index", f"{path}.kind", errors, minimum=0)
                bit = _get_int(kind_raw, "bit", f"{path}.kind", errors, minimum=0, maximum=15)
                if None not in (ei, bit):
                    kind = flt.OutputBitFlip(ei, bit)
            elif ktype == "extra_delay":
                ns = _get_int(kind_raw, "ns", f"{path}.kind", errors, minimum=0)
                if ns is not None:
                    kind = flt.ExtraDelay(ns)
            elif ktype == "drop_output":
                kind = flt.DropOutput()
            else:
                kind = flt.StuckOutput()

    trig_raw = raw.get("trigger", {"type": "always"})
    trigger = None
    if not isinstance(trig_raw, dict) or "type" not in trig_raw:
        errors.append(f"{path}.trigger: expected an object with a 'type' field")
    else:
        ttype = trig_raw["type"]
        fields = _TRIGGER_FIELDS.get(ttype)
        if fields is None:
            errors.append(f"{path}.trigger.type: unknown trigger {ttype!r}")
        elif _check_keys(trig_raw, fields | {"type"}, f"{path}.trigger", errors):
            if ttype == "always":
                trigger = flt.Always()
            elif ttype == "on_frame":
                fid = _get_int(trig_raw, "frame_id", f"{path}.trigger", errors, minimum=0)
                if fid is not None:
                    trigger = flt.OnFrame(fid)
            else:
                p = _get_num(trig_raw, "p", f"{path}.trigger", errors, minimum=0.0, maximum=1.0)
                if p is not None:
                    trigger = flt.WithProbability(p)

    if rid is None or kind is None or trigger is None:
        return None
    spec = flt.FaultSpec(kind, trigger)
    if workload is not None:
        errors.extend(flt.validate_fault(spec, list(workload.arch), workload.frame_count, path))
    return (rid, spec)


def _parse_profiler(raw, path, errors) -> ProfilerSettings:
    merged = dict(_DEFAULT_PROFILER)
    if not _check_keys(raw, set(merged), path, errors):
        raw = {}
    bins = _get_int(raw, "bin_count", path, errors, default=merged["bin_count"], minimum=1)
    thr = _get_num(raw, "outlier_threshold", path, errors, default=merged["outlier_threshold"], minimum=0.0)
    alpha = _get_num(raw, "alpha", path, errors, default=merged["alpha"], minimum=1e-9, maximum=0.5)
    if None in (bins, thr, alpha):
        return ProfilerSettings()
    return ProfilerSettings(bins, thr, alpha)


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
        seed = int(seed_override)
    elif "seed" in obj:
        seed = _get_int(obj, "seed", "config", errors, minimum=0)
    elif env.get(SEED_ENV_VAR):
        try:
            seed = int(env[SEED_ENV_VAR])
        except ValueError:
            errors.append(f"config.seed: {SEED_ENV_VAR}={env[SEED_ENV_VAR]!r} is not an integer")
    else:
        errors.append(f"config.seed: required (set it, pass --seed, or export {SEED_ENV_VAR})")
    if seed is not None and seed < 0:
        errors.append(f"config.seed: must be >= 0, got {seed}")

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

    profiler = _parse_profiler(obj.get("profiler", {}), "config.profiler", errors)

    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        errors.append("config.metadata: expected an object")
        metadata = {}

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        seed=seed,
        topology=topology,
        workload=workload,
        faults=faults,
        profiler=profiler,
        metadata=metadata,
    )


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
