"""Small constructors shared across test modules."""

import json

import lockstepsim
from lockstepsim.config import config_from_dict
from lockstepsim.coupling import Tight
from lockstepsim.eventsim import JitterModel
from lockstepsim.experiment import ExperimentRunner
from lockstepsim.replica import HEALTHY, compute_cycles, gen_weights
from lockstepsim.rng import derive_seed, fnv1a64
from lockstepsim.voting import DELIVER_OUTPUT, ENTER_SAFE_OFF, OPERATIONAL, SAFE_OFF, VERDICTS
from oracles import _Layer, _Tensor, _Weights


def run_with_text(raw):
    """(config, report, trace text) of one run of the raw config."""
    cfg = config_from_dict(raw)
    chunks = []
    report = ExperimentRunner(cfg, chunks.append).run()
    return cfg, report, "".join(chunks)


def run_with_records(raw):
    """(config, report, trace records) of one run of the raw config; each
    record is a line of the runner's trace in schema 3 (`expand`), parsed."""
    cfg, report, text = run_with_text(raw)
    return cfg, report, [json.loads(line) for line in expand(text.splitlines())]


# The verdict fields that schema 4 leaves out where they are at rest.
AT_REST = {"state": OPERATIONAL, "action": DELIVER_OUTPUT, "consecutive_faults": 0}


def expand(lines):
    """The schema-3 trace lines, each with its newline, of the schema-4
    trace `lines`. The header loses the fields that schema 3 lacks. Each
    verdict gains the fields it leaves out, from the header and the lines
    before it (`lockstepsim.trace`), in schema 3's key order: frame_id,
    repetition, release_ns and delivery_ns, then the clean digest and
    classification, then the rendezvous, bus divergence and variant fields,
    then the safety switch. Other lines are the same in both schemas."""
    out, verdicts, release, clean = [], 0, 0, {}
    for line in lines:
        r = json.loads(line)
        if r["kind"] == "header":
            head = r
            r = {key: v for key, v in r.items()
                 if key not in ("repetitions_per_frame", "debounce_threshold", "feed_jitter")}
            r["schema_version"] = 3
        elif r["kind"] == "verdict":
            if "digest" in r:
                clean = {key: r.pop(key) for key in ("digest", "classification")}
            reps, t = head["repetitions_per_frame"], r["t_ns"]
            lead = {key: r.pop(key) for key in ("t_ns", "seq", "kind")}
            safety = {key: r.pop(key, v) for key, v in AT_REST.items()}
            r = {**lead, "frame_id": verdicts // reps, "repetition": verdicts % reps, "release_ns": release,
                 "delivery_ns": r.pop("delivery_ns", [0] * len(head["replica_ids"])), **clean, **r, **safety}
            verdicts, release = verdicts + 1, t
        out.append(json.dumps(r, separators=(",", ":")) + "\n")
    return out


def rounds_of(records):
    """(verdict, completions) of each round of parsed schema-3 trace records
    (`run_with_records`), in round order: a round's completions are the records right before its
    verdict. Each completion gains the round's frame_id and repetition, and
    the digest and classification of its output (the clean output's unless
    the record names its own)."""
    rounds, completions = [], []
    for r in records:
        if r["kind"] == "completion":
            completions.append(r)
        elif r["kind"] == "verdict":
            rounds.append((r, [{"frame_id": r["frame_id"], "repetition": r["repetition"], "digest": r["digest"],
                                "classification": r["classification"], **c} for c in completions]))
            completions = []
    return rounds


def check_trace_against_report(lines, report):
    """Re-derive from the schema-4 trace `lines` alone what the report.json
    dict `report` says, and assert that each part agrees: the header's
    fields, the PTP rows, each replica's samples, the verdict counts, the
    complete rendezvous' skews, the bus divergences and the safety
    timeline. Assert first that no verdict writes a field that the header
    and the lines before it give, then check the schema-3 records of
    `expand`. Also assert the trace's own layout: seq is the line index,
    (t_ns, seq) strictly increases, each round's completions come between
    its release and its verdict, and a pass names its agreement only where
    it is not every header replica agreeing on the clean output."""
    config = report["config"]
    cfg = config_from_dict(config, env={})
    topo, wl = cfg.topology, cfg.workload
    healthy = [rid for rid, state in enumerate(topo.health) if state == HEALTHY]
    raw = [json.loads(line) for line in lines]
    head = raw[0]
    assert head == {
        "t_ns": 0, "seq": 0, "kind": "header", "schema_version": 4, "package_version": lockstepsim.__version__,
        "seed": config["seed"], "config_digest": fnv1a64(json.dumps(config, separators=(",", ":")).encode()),
        "replica_ids": healthy,
        "compute_cycles": compute_cycles(gen_weights(derive_seed(cfg.seed, "weights"), wl.arch), topo.engine),
        "required_agreement": topo.policy.required_agreement, "repetitions_per_frame": wl.repetitions_per_frame,
        "debounce_threshold": topo.debounce_threshold,
        "feed_jitter": not isinstance(topo.coupling, Tight) and any(
            topo.feed_jitter[rid] != JitterModel() for rid in healthy)}
    for i, v in enumerate(r for r in raw if r["kind"] == "verdict"):
        assert not {"frame_id", "repetition", "release_ns"} & v.keys()
        assert ("digest" in v) == ("classification" in v) == (i % wl.repetitions_per_frame == 0)
        assert {key in v for key in AT_REST} == {v.get("consecutive_faults", 0) != 0}
        assert ("delivery_ns" in v) == head["feed_jitter"]

    records = [json.loads(line) for line in expand(lines)]
    keys = [(r["t_ns"], r["seq"]) for r in records]
    assert [seq for _, seq in keys] == list(range(len(records)))
    assert all(a < b for a, b in zip(keys, keys[1:]))
    ptp = [r for r in records if r["kind"] == "ptp"]
    assert records[1:1 + len(ptp)] == ptp
    assert [{k: r[k] for k in ("replica_id", "offset_ns", "path_delay_ns")} for r in ptp] == report["ptp"]

    rounds = rounds_of(records)
    assert sum(len(cs) + 1 for _, cs in rounds) == len(records) - 1 - len(ptp)
    assert [(v["frame_id"], v["repetition"]) for v, _ in rounds] == [
        (f, rep) for f in range(wl.frame_count) for rep in range(wl.repetitions_per_frame)]
    samples = {row["replica_id"]: [] for row in report["replicas"]}
    for v, completions in rounds:
        assert len(v["delivery_ns"]) == len(healthy)
        assert [c["replica_id"] for c in sorted(completions, key=lambda c: (c["t_ns"], c["replica_id"]))] == [
            c["replica_id"] for c in completions]
        assert len({c["replica_id"] for c in completions}) == len(completions)
        for c in completions:
            assert c["replica_id"] in healthy and c["t_ns"] == v["release_ns"] + c["turnaround_ns"] <= v["t_ns"]
            samples[c["replica_id"]].append(c["turnaround_ns"])
    assert [samples[row["replica_id"]] for row in report["replicas"]] == [row["samples"] for row in report["replicas"]]

    verdicts = [v for v, _ in rounds]
    for v in verdicts:
        if v["variant"] == "pass" and ("agreeing_ids" in v or "agreed_digest" in v):
            assert (v["agreeing_ids"], v["agreed_digest"]) != (healthy, v["digest"])
    assert {name: sum(v["variant"] == name for v in verdicts) for name in VERDICTS} == report["verdict_counts"]
    skews = [v["skew_ns"] for v in verdicts if v.get("rendezvous") == "complete"]
    assert report["skew_ns"] == ({"n": len(skews), "min": min(skews), "mean": sum(skews) / len(skews),
                                  "max": max(skews)} if skews else None)
    assert sum("bus_divergence" in v for v in verdicts) == report["bus"]["divergences"]
    assert report["safety"] == {
        "final_state": verdicts[-1]["state"],
        "timeline": [{"t_ns": v["t_ns"], "frame_id": v["frame_id"], "repetition": v["repetition"],
                      "from": OPERATIONAL, "to": SAFE_OFF} for v in verdicts if v["action"] == ENTER_SAFE_OFF]}


def zero_jitter_duplex(seed=1, frames=5, reps=1, window_ns=10_000_000, policy="1oo2",
                       replicas=2, faults=(), debounce=1, extra_topology=None,
                       arch=(4, 4, 3), input_shape=(4,)):
    """Config dict for a quiet (zero-jitter) loose topology."""
    topology = {
        "replicas": replicas,
        "coupling": {"mode": "loose", "rendezvous_window_ns": window_ns},
        "voter": {
            "policy": policy,
            "comparator": {"kind": "exact"},
            "debounce_threshold": debounce,
        },
        "clock": {"freq_hz": 1_000_000_000, "drift_ppm": 0},
    }
    if extra_topology:
        topology.update(extra_topology)
    return {
        "seed": seed,
        "topology": topology,
        "workload": {
            "frame_count": frames,
            "repetitions_per_frame": reps,
            "input_shape": list(input_shape),
            "arch": list(arch),
        },
        "faults": list(faults),
    }


def oracle_tensor(array):
    """An int16 array as the oracle's tensor: its shape and its values in
    row-major order."""
    return _Tensor(array.shape, tuple(array.ravel().tolist()))


def oracle_network(layers):
    """The network `layers`, (weights, bias) array pairs, as the oracle's
    weights: every layer but the last applies ReLU."""
    return _Weights(tuple(
        _Layer(oracle_tensor(w), oracle_tensor(b), "relu" if i < len(layers) - 1 else "none", *w.shape)
        for i, (w, b) in enumerate(layers)))
