"""Small constructors shared across test modules."""

import json

import lockstepsim
from lockstepsim.config import config_from_dict
from lockstepsim.experiment import ExperimentRunner
from lockstepsim.replica import HEALTHY, compute_cycles, gen_weights
from lockstepsim.rng import derive_seed, fnv1a64
from lockstepsim.voting import ENTER_SAFE_OFF, OPERATIONAL, SAFE_OFF, VERDICTS
from oracles import _Layer, _Tensor, _Weights


def run_with_text(raw):
    """(config, report, trace text) of one run of the raw config."""
    cfg = config_from_dict(raw)
    chunks = []
    report = ExperimentRunner(cfg, chunks.append).run()
    return cfg, report, "".join(chunks)


def run_with_records(raw):
    """(config, report, trace records) of one run of the raw config; each
    record is a line the runner wrote, parsed."""
    cfg, report, text = run_with_text(raw)
    return cfg, report, [json.loads(line) for line in text.splitlines()]


def rounds_of(records):
    """(verdict, completions) of each round of parsed trace records, in
    round order: a round's completions are the records right before its
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


def check_trace_against_report(records, report):
    """Re-derive from the parsed trace `records` alone what the report.json
    dict `report` says, and assert that each part agrees: the header's
    fields, the PTP rows, each replica's samples, the verdict counts, the
    complete rendezvous' skews, the bus divergences and the safety
    timeline. Also assert the trace's own layout: seq is the line index,
    (t_ns, seq) strictly increases, each round's completions come between
    its release and its verdict, and a pass names its agreement only where
    it is not every header replica agreeing on the clean output."""
    keys = [(r["t_ns"], r["seq"]) for r in records]
    assert [seq for _, seq in keys] == list(range(len(records)))
    assert all(a < b for a, b in zip(keys, keys[1:]))

    config = report["config"]
    cfg = config_from_dict(config, env={})
    topo, wl = cfg.topology, cfg.workload
    head = records[0]
    healthy = [rid for rid, state in enumerate(topo.health) if state == HEALTHY]
    assert head == {
        "t_ns": 0, "seq": 0, "kind": "header", "schema_version": 3, "package_version": lockstepsim.__version__,
        "seed": config["seed"], "config_digest": fnv1a64(json.dumps(config, separators=(",", ":")).encode()),
        "replica_ids": healthy,
        "compute_cycles": compute_cycles(gen_weights(derive_seed(cfg.seed, "weights"), wl.arch), topo.engine),
        "required_agreement": topo.policy.required_agreement}
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
