"""Small constructors shared across test modules."""

import json

import lockstepsim
from lockstepsim.config import config_from_dict
from lockstepsim.coupling import Tight
from lockstepsim.eventsim import JitterModel, cycles_to_time
from lockstepsim.experiment import ExperimentRunner
from lockstepsim.replica import HEALTHY, compute_cycles, gen_weights
from lockstepsim.rng import derive_seed, fnv1a64
from lockstepsim.voting import DEGRADED, ENTER_SAFE_OFF, OPERATIONAL, SAFE_OFF, VERDICTS
from oracles import Complete, SafetySwitchState, Verdict, _Layer, _Tensor, _Weights, rendezvous, step_safety


def run_with_text(raw):
    """(config, report, trace text) of one run of the raw config."""
    cfg = config_from_dict(raw)
    chunks = []
    report = ExperimentRunner(cfg, chunks.append).run()
    return cfg, report, b"".join(chunks).decode()


def run_with_records(raw):
    """(config, report, trace records) of one run of the raw config; each
    record is a line of the runner's trace in schema 3 (`expand`), parsed."""
    cfg, report, text = run_with_text(raw)
    return cfg, report, [json.loads(line) for line in expand(text.splitlines())]


# The header fields that schema 3 lacks.
NEW_HEADER_FIELDS = ("repetitions_per_frame", "debounce_threshold", "feed_jitter", "window_ns", "clock_offsets_ns")
# The verdict fields that schema 5 re-derives from the completions and the header.
DERIVED = ("rendezvous", "skew_ns", "present_ids", "missing_ids", "reason", "state", "action", "consecutive_faults")


def expand(lines):
    """The schema-3 trace lines, each with its newline, of the schema-5
    trace `lines`. The header loses the fields that schema 3 lacks. Each
    verdict gains the fields it leaves out, from the header and the lines
    before it (`lockstepsim.trace`), in schema 3's key order: frame_id,
    repetition, release_ns and delivery_ns, then the clean digest and
    classification, then the rendezvous, bus divergence and variant fields
    (a degraded verdict's reason last), then the safety switch. The frozen
    references re-derive the rendezvous (`oracles.rendezvous`) from the
    round's arrivals and step the switch (`oracles.step_safety`). Other
    lines are the same in both schemas."""
    out, verdicts, release, clean, arrivals = [], 0, 0, {}, []
    for line in lines:
        r = json.loads(line)
        if r["kind"] == "header":
            head = r
            r = {key: v for key, v in r.items() if key not in NEW_HEADER_FIELDS}
            r["schema_version"] = 3
            ids = head["replica_ids"]
            correction = dict(zip(ids, head["clock_offsets_ns"]))  # what arrival adds to a turnaround
            switch = SafetySwitchState(debounce_threshold=head["debounce_threshold"])
        elif r["kind"] == "ptp" and r["replica_id"] in correction:
            correction[r["replica_id"]] -= r["offset_ns"]
        elif r["kind"] == "completion":
            arrivals.append((r["replica_id"], r["turnaround_ns"] + correction[r["replica_id"]]))
        elif r["kind"] == "verdict":
            if "digest" in r:
                clean = {key: r.pop(key) for key in ("digest", "classification")}
            reps, t = head["repetitions_per_frame"], r["t_ns"]
            lead = {key: r.pop(key) for key in ("t_ns", "seq", "kind")}
            outcome = rendezvous(ids, arrivals, head["window_ns"]) if ids else None
            if isinstance(outcome, Complete):
                outcome = {"rendezvous": "complete", "skew_ns": outcome.skew_ns}
            elif outcome is not None:
                outcome = {"rendezvous": "timeout", "present_ids": list(outcome.present_ids),
                           "missing_ids": list(outcome.missing_ids)}
            if r["variant"] == DEGRADED:
                r["reason"] = (f"{len(ids)} output(s) cannot reach {head['required_agreement']}-way agreement"
                               if ids else "no healthy replicas")
            switch, action = step_safety(switch, Verdict(r["variant"]))
            r = {**lead, "frame_id": verdicts // reps, "repetition": verdicts % reps, "release_ns": release,
                 "delivery_ns": r.pop("delivery_ns", [0] * len(ids)), **clean, **(outcome or {}), **r,
                 "state": switch.state, "action": action, "consecutive_faults": switch.consecutive_fault_count}
            verdicts, release, arrivals = verdicts + 1, t, []
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
    """Re-derive from the schema-5 trace `lines` alone what the report.json
    dict `report` says, and assert that each part agrees: the header's
    fields, the PTP rows, each replica's samples, the verdict counts, the
    complete rendezvous' skews, the bus divergences and the safety
    timeline. Assert first that no verdict writes a field that the header
    and the lines before it give, then check the schema-3 records of
    `expand`, whose rendezvous and safety switch are re-derived from the
    completions and the header. Also assert the trace's own layout: seq is the line index,
    (t_ns, seq) strictly increases, each round's completions come between
    its release and its verdict, and a pass names its agreement only where
    it is not every header replica agreeing on the clean output."""
    config = report["config"]
    cfg = config_from_dict(config, env={})
    topo, wl = cfg.topology, cfg.workload
    healthy = [rid for rid, state in enumerate(topo.health) if state == HEALTHY]
    raw = [json.loads(line) for line in lines]
    head = raw[0]
    if isinstance(topo.coupling, Tight):
        window = max(cycles_to_time(topo.coupling.skew_tolerance_cycles, topo.clocks[0]), 1)
    else:
        window = topo.coupling.rendezvous_window_ns
    assert head == {
        "t_ns": 0, "seq": 0, "kind": "header", "schema_version": 5, "package_version": lockstepsim.__version__,
        "seed": config["seed"], "config_digest": fnv1a64(json.dumps(config, separators=(",", ":")).encode()),
        "replica_ids": healthy,
        "compute_cycles": compute_cycles(gen_weights(derive_seed(cfg.seed, "weights"), wl.arch), topo.engine),
        "required_agreement": topo.policy.required_agreement, "repetitions_per_frame": wl.repetitions_per_frame,
        "debounce_threshold": topo.debounce_threshold,
        "feed_jitter": not isinstance(topo.coupling, Tight) and any(
            topo.feed_jitter[rid] != JitterModel() for rid in healthy),
        "window_ns": window, "clock_offsets_ns": [topo.clock_offsets_ns[rid] for rid in healthy]}
    for i, v in enumerate(r for r in raw if r["kind"] == "verdict"):
        assert not {"frame_id", "repetition", "release_ns", *DERIVED} & v.keys()
        assert ("digest" in v) == ("classification" in v) == (i % wl.repetitions_per_frame == 0)
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
        # a timeout verdict exactly where the re-derived rendezvous timed out
        assert (v["variant"] == "timeout") == (v.get("rendezvous") == "timeout")
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
