"""Metamorphic relations: properties of a run, or between runs, that hold
whatever the right output is.

The oracle fuzz (`test_reference_runner`) checks the runner against its
frozen scalar copy, so a modelling error that both share passes it. These
relations check the model against itself (T. Y. Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Computing Surveys
2018), over the oracle fuzz's generated configs: every fault kind, trigger
and topology feature.
"""

import copy
import json
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.config import config_from_dict
from lockstepsim.experiment import run_experiment
from helpers import rounds_of, run_with_records, run_with_text
from test_reference_runner import _fault_kind, _trigger, configs


def _tight(raw):
    """`raw` on a tight topology with bus compare: a loose one gets tight
    coupling on one shared clock, without offsets, PTP or feed jitter."""
    topo = raw["topology"]
    if topo["coupling"]["mode"] == "loose":
        for key in ("clocks", "clock_offsets_ns", "ptp", "feed_jitter"):
            topo.pop(key, None)
        topo["coupling"] = {"mode": "tight"}
    topo["bus_trace_compare"] = True
    return raw


def assert_equal_but_the_config(text, other):
    """Two traces are equal but for the config digest in their headers:
    the configs differ, the runs do not."""
    (head, rest), (other_head, other_rest) = text.split("\n", 1), other.split("\n", 1)
    assert rest == other_rest
    assert {**json.loads(head), "config_digest": 0} == {**json.loads(other_head), "config_digest": 0}


def _completed(records):
    """The (frame_id, repetition) of each complete rendezvous."""
    return {(r["frame_id"], r["repetition"]) for r in records
            if r["kind"] == "verdict" and r.get("rendezvous") == "complete"}


def _emitters(records):
    """The replicas that emitted an output, per (frame_id, repetition)."""
    emitted = defaultdict(set)
    for _, completions in rounds_of(records):
        for c in completions:
            emitted[c["frame_id"], c["repetition"]].add(c["replica_id"])
    return emitted


@settings(settings.get_profile("oracle-fuzz"))
@given(configs(), st.data())
def test_a_a_wider_window_never_turns_a_complete_rendezvous_into_a_timeout(raw, data):
    # A round's completion times do not depend on the window or the
    # tolerance, only whether they fit in it: every rendezvous that
    # completes under the narrower one completes under the wider one.
    wider = copy.deepcopy(raw)
    coupling = wider["topology"]["coupling"]
    if coupling["mode"] == "loose":
        coupling["rendezvous_window_ns"] += data.draw(st.integers(0, 10_000_000))
    else:
        coupling["skew_tolerance_cycles"] += data.draw(st.integers(0, 5))
    narrow, wide = (_completed(run_with_records(r)[2]) for r in (raw, wider))
    assert narrow <= wide


@settings(settings.get_profile("oracle-fuzz"))
@given(configs(), st.data())
def test_b_a_fault_that_changes_nothing_leaves_the_trace_and_samples(raw, data):
    # A zero extra delay that always fires, or any fault that fires with
    # probability 0, moves no time and changes no output. It is appended,
    # so the other faults keep their streams. A value fault that never
    # fires still runs the value path, with every output unchanged.
    n, arch = raw["topology"]["replicas"], raw["workload"]["arch"]
    if data.draw(st.booleans()):
        fault = {"kind": {"type": "extra_delay", "ns": 0}, "trigger": {"type": "always"}}
    else:
        fault = {"kind": _fault_kind(data.draw, arch), "trigger": {"type": "with_probability", "p": 0.0}}
    quiet = copy.deepcopy(raw)
    quiet["faults"].append({"replica_id": data.draw(st.integers(0, n - 1)), **fault})
    (_, report, text), (_, quiet_report, quiet_text) = run_with_text(raw), run_with_text(quiet)
    assert_equal_but_the_config(quiet_text, text)
    for a, b in zip(report.replicas, quiet_report.replicas, strict=True):
        assert np.array_equal(a["samples"], b["samples"])


@settings(settings.get_profile("oracle-fuzz"))
@given(configs(), st.data())
def test_c_switching_off_a_replica_leaves_the_others_samples(raw, data):
    # A sample is its replica's feed and host jitter, compute time and own
    # faults, each drawn by round from a stream named by replica id or
    # fault index: none reads another replica. Checked with the generated
    # faults and without any.
    off = data.draw(st.integers(0, raw["topology"]["replicas"] - 1))
    for faults in (raw["faults"], []):
        kept = copy.deepcopy({**raw, "faults": faults})
        cut = copy.deepcopy(kept)
        cut["topology"]["health"][off] = "switched_off"
        a, b = (run_experiment(config_from_dict(r)).replicas for r in (kept, cut))
        assert not len(b[off]["samples"])
        for rid in set(range(len(a))) - {off}:
            assert np.array_equal(a[rid]["samples"], b[rid]["samples"])


@settings(settings.get_profile("oracle-fuzz"))
@given(configs())
def test_d_a_zero_tolerance_writes_the_exact_comparators_trace(raw):
    # Outputs within 0 of each other are equal outputs, whose digests are
    # equal: the two comparators group every round alike.
    raw["topology"]["voter"]["comparator"] = {"kind": "exact"}
    zero = copy.deepcopy(raw)
    zero["topology"]["voter"]["comparator"] = {"kind": "tolerance", "eps": 0.0}
    assert_equal_but_the_config(run_with_text(zero)[2], run_with_text(raw)[2])


@settings(settings.get_profile("oracle-fuzz"))
@given(configs(), st.integers(1, 4))
def test_e_a_higher_debounce_never_enters_safe_off_earlier(raw, raise_by):
    # The safety switch only reads the verdicts, so a higher debounce
    # threshold changes no verdict, fault, bus or skew count and no sample,
    # and a run that enters SafeOff with it enters SafeOff with the lower
    # threshold too, at the same round or earlier.
    higher = copy.deepcopy(raw)
    higher["topology"]["voter"]["debounce_threshold"] += raise_by
    low, high = (run_experiment(config_from_dict(r)) for r in (raw, higher))
    for key in ("verdict_counts", "faults", "bus", "skew_ns"):
        assert getattr(low, key) == getattr(high, key)
    for a, b in zip(low.replicas, high.replicas, strict=True):
        assert np.array_equal(a["samples"], b["samples"])
    entered = [[(e["frame_id"], e["repetition"]) for e in r.safety["timeline"]] for r in (low, high)]
    if entered[1]:
        assert entered[0] and entered[0][0] <= entered[1][0]


@settings(settings.get_profile("oracle-fuzz"))
@given(configs())
def test_f_tight_zero_jitter_no_delay_skews_are_zero_and_buses_match(raw):
    # Every replica runs the same work on one clock, released at once, so
    # every output completes at the same time. Weight flips are left out:
    # they change the bus by design (relation h). Drops, stuck outputs and
    # output flips stay; they change neither a completion time nor a bus.
    raw = _tight(raw)
    raw["topology"].pop("host_jitter", None)
    raw["faults"] = [f for f in raw["faults"] if f["kind"]["type"] not in ("extra_delay", "weight_bit_flip")]
    cfg, report, records = run_with_records(raw)
    assert {r["skew_ns"] for r in records if "skew_ns" in r} <= {0}
    assert report.skew_ns is None or (report.skew_ns["min"], report.skew_ns["max"]) == (0, 0)
    # a zero skew is within any window: only a missing output times out
    healthy = {rid for rid, state in enumerate(cfg.topology.health) if state == "healthy"}
    emitted = _emitters(records)
    for r in records:
        if "rendezvous" in r:
            assert (r["rendezvous"] == "complete") == (emitted[r["frame_id"], r["repetition"]] == healthy)
    assert not [r for r in records if "bus_divergence" in r]
    assert report.bus == {"comparisons": sum(len(ids) >= 2 for ids in emitted.values()), "divergences": 0}


@settings(settings.get_profile("oracle-fuzz"))
@given(configs(), st.data())
def test_h_a_weight_flip_diverges_at_its_layers_fetch_in_the_rounds_it_fires(raw, data):
    # One weight-bit flip on layer L of one replica, and no other: the bus
    # diverges at event 4L in every round in which it fired and the replica
    # and at least one other emitted, and in no other round. Its rounds are
    # read from a second run in which the same fault, with the same
    # trigger, drops the replica's output instead.
    raw = _tight(raw)
    arch = raw["workload"]["arch"]
    layer = data.draw(st.integers(0, len(arch) - 2))
    rid = data.draw(st.integers(0, raw["topology"]["replicas"] - 1))
    flip = {"replica_id": rid,
            "kind": {"type": "weight_bit_flip", "layer": layer,
                     "element_index": data.draw(st.integers(0, arch[layer] * arch[layer + 1] - 1)),
                     "bit": data.draw(st.integers(0, 15))},
            "trigger": _trigger(data.draw, raw["workload"]["frame_count"])}
    faults = [f for f in raw["faults"] if f["kind"]["type"] != "weight_bit_flip"]
    at = data.draw(st.integers(0, len(faults)))
    raw["faults"] = faults[:at] + [flip] + faults[at:]
    dropping = copy.deepcopy(raw)
    dropping["faults"][at]["kind"] = {"type": "drop_output"}

    _, report, records = run_with_records(raw)
    emitted = _emitters(records)
    kept = _emitters(run_with_records(dropping)[2])
    fired = {key for key, ids in emitted.items() if rid in ids and rid not in kept[key]}
    divergences = {(r["frame_id"], r["repetition"]): r["bus_divergence"] for r in records if "bus_divergence" in r}
    assert set(divergences) == {key for key in fired if len(emitted[key]) >= 2}
    for key, r in divergences.items():
        # the first emitter against the first other emitter that differs
        assert r["event_index"] == 4 * layer and rid in (r["replica_a"], r["replica_b"])
        assert r["replica_a"] == min(emitted[key]) and r["replica_b"] in emitted[key]
    assert report.bus["divergences"] == len(divergences)
