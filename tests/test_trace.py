"""Each trace record function against `json.dumps` of the record it writes,
the round writer's slot layout on hand-built columns, and its pieces."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import zero_jitter_duplex
from lockstepsim import trace
from lockstepsim.config import config_from_dict
from lockstepsim.experiment import ExperimentRunner
from lockstepsim.voting import (
    ACTIONS,
    DELIVER_OUTPUT,
    ENTER_SAFE_OFF,
    OPERATIONAL,
    SAFE_OFF,
    SUPPRESS_OUTPUT,
    VERDICTS,
)
from test_golden import CASES

times = st.integers(0, (1 << 62) - 1)
seqs = st.integers(0, 10**12)
small = st.integers(0, 10**6)
signed = st.integers(-(1 << 62), 1 << 62)
digests = st.integers(0, (1 << 64) - 1)
id_lists = st.lists(st.integers(0, 7), max_size=8)
states = st.sampled_from([OPERATIONAL, SAFE_OFF])
actions = st.sampled_from([DELIVER_OUTPUT, SUPPRESS_OUTPUT, ENTER_SAFE_OFF])
# quotes, backslashes, control and non-ASCII characters
reasons = st.text(alphabet=st.sampled_from('ab "\\\n\t\x00é€😀/'), max_size=20) | st.text(max_size=20)


def line(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


def head(t, seq, kind):
    return {"t_ns": t, "seq": seq, "kind": kind}


@given(times, seqs, st.integers(0, 7), signed, st.none() | st.tuples(digests, small))
@settings(max_examples=100, deadline=None)
def test_completion(t, seq, rid, turnaround, changed):
    want = {**head(t, seq, "completion"), "replica_id": rid, "turnaround_ns": turnaround}
    if changed is None:
        got = trace.completion(t, seq, rid, turnaround)
    else:
        want.update(digest=changed[0], classification=changed[1])
        got = trace.completion(t, seq, rid, turnaround, trace.output(*changed))
    assert got == line(want)


outcomes = st.one_of(
    st.just(("", {})),
    st.builds(lambda skew: (trace.completed(skew), {"rendezvous": "complete", "skew_ns": skew}), signed),
    st.builds(lambda present, missing: (trace.timed_out(trace.ids(present), trace.ids(missing)),
                                        {"rendezvous": "timeout", "present_ids": present, "missing_ids": missing}),
              id_lists, id_lists),
)
divergences = st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7), small)
variants = st.one_of(
    st.builds(lambda ids, d: ("pass", trace.agreed(trace.ids(ids), d), {"agreeing_ids": ids, "agreed_digest": d}),
              id_lists, digests),
    st.builds(lambda groups: ("mismatch", trace.groups(groups), {"groups": groups}), st.lists(id_lists, max_size=4)),
    st.just(("timeout", "", {})),
    st.builds(lambda text: ("degraded", trace.reason(text), {"reason": text}), reasons),
)


@given(times, seqs, small, small, times, st.lists(signed, max_size=8), digests, small, outcomes, divergences,
       variants, states, actions, small)
@settings(max_examples=200, deadline=None)
def test_verdict(t, seq, frame_id, rep, release, deliveries, digest, cls, outcome, divergence, variant,
                 state, action, count):
    outcome_text, outcome_fields = outcome
    name, fields, want_fields = variant
    want = {**head(t, seq, "verdict"), "frame_id": frame_id, "repetition": rep, "release_ns": release,
            "delivery_ns": deliveries, "digest": digest, "classification": cls, **outcome_fields}
    if divergence is not None:
        want["bus_divergence"] = dict(zip(("replica_a", "replica_b", "event_index"), divergence))
        outcome_text += trace.diverged(*divergence)
    want.update(variant=name, **want_fields, state=state, action=action, consecutive_faults=count)
    got = trace.verdict(t, seq, frame_id, rep, release, trace.ids(deliveries), trace.output(digest, cls),
                        outcome_text, name, fields, trace.safety_fields(state, action, count))
    assert got == line(want)


@given(times, seqs, st.integers(0, 7), signed, signed)
@settings(max_examples=100, deadline=None)
def test_ptp(t, seq, rid, offset, delay):
    want = {**head(t, seq, "ptp"), "replica_id": rid, "offset_ns": offset, "path_delay_ns": delay}
    assert trace.ptp(t, seq, rid, offset, delay) == line(want)


# The golden 2oo3 run has dropped and changed outputs, timeouts and bus
# divergences in some rounds only, so with pieces of 2 or 3 rounds a piece
# edge falls beside each; with pieces of 1, a piece is one round.
@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("raw", [zero_jitter_duplex(frames=5, reps=2), CASES["tight-2oo3-all-faults"]()],
                         ids=["duplex", "tight-2oo3-all-faults"])
def test_rounds_writes_whole_rounds_a_piece_at_a_time(raw, size):
    cfg = config_from_dict(raw)
    whole, pieces = [], []
    ExperimentRunner(cfg, whole.append).run()
    with mock.patch.object(trace, "WRITE_ROUNDS", size):
        ExperimentRunner(cfg, pieces.append).run()
    # the header, then one piece per write
    assert "".join(pieces) == "".join(whole) and len(whole) == 2
    verdicts = [text.count('"kind":"verdict"') for text in pieces[1:]]
    rounds = cfg.workload.frame_count * cfg.workload.repetitions_per_frame
    assert verdicts[:-1] == [size] * (len(pieces) - 2) and sum(verdicts) == rounds
    assert all('"kind":"verdict"' in text.splitlines()[-1] for text in pieces[1:])


def chunk(**columns):
    """A chunk's columns for `trace.rounds`, each as an array."""
    kinds = dict(clean=np.uint64, agreed=np.uint64, digests=np.uint64, outputs=np.int16, emit=bool, present=bool,
                 complete=bool, diverged=bool, safe=bool)
    return {key: None if v is None else np.array(v, dtype=kinds.get(key, np.int64)) for key, v in columns.items()}


def completion_record(t, seq, rid, turnaround, **changed):
    return {**head(t, seq, "completion"), "replica_id": rid, "turnaround_ns": turnaround, **changed}


def verdict_record(t, seq, frame_id, rep, release, deliveries, digest, cls, fields, state, action, count):
    """`fields` are those between the classification and the safety switch."""
    return {**head(t, seq, "verdict"), "frame_id": frame_id, "repetition": rep, "release_ns": release,
            "delivery_ns": deliveries, "digest": digest, "classification": cls, **fields, "state": state,
            "action": action, "consecutive_faults": count}


D0, D1 = (1 << 64) - 5, 12345
PASS, MISMATCH, TIMEOUT, DEGRADED = map(VERDICTS.index, ("pass", "mismatch", "timeout", "degraded"))
DELIVER, SUPPRESS, ENTER = map(ACTIONS.index, (DELIVER_OUTPUT, SUPPRESS_OUTPUT, ENTER_SAFE_OFF))

# Replicas 0, 2 and 3 over four rounds: a completion-time tie in a pass on
# the clean output, which names no agreement (round 0); an
# output dropped by replica 2, earliest but written nowhere, in a timed-out
# rendezvous (round 1); an output changed by replica 3, first in time, with a
# bus divergence, in a pass that names the agreeing replicas 0 and 2
# (round 2); a three-way mismatch of tied completions that enters SafeOff
# (round 3).
HEALTHY = chunk(
    frame_ids=[10, 10, 11, 11], reps=[0, 1, 0, 1], clean=[D0, D0, D1, D1], classes=[4, 4, 1, 1],
    starts=[1000, 2000, 3000, 4000], ends=[1900, 2900, 3900, 4900],
    feed=[[10, 20, 30], [10, 20, 30], [5, 5, 5], [0, 0, 0]],
    comp=[[500, 300, 300], [400, 100, 450], [200, 250, 150], [300, 300, 300]],
    emit=[[1, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1]], present=[[1, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1]],
    complete=[1, 0, 1, 1], skew=[200, 50, 100, 0], verdict=[PASS, TIMEOUT, PASS, MISMATCH],
    labels=[[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 1, 2]], best=[0, 0, 0, 0], agreed=[D0, D0, D1, D1], digests=[[D0, D0, D0], [D0, D0, D0], [D1, D1, 777], [D1, 888, 999]],
    outputs=np.eye(4, dtype=np.int16)[[[0] * 3, [0] * 3, [1, 1, 2], [1, 1, 3]]],  # class: where the 1 is
    diverged=[0, 0, 1, 0], other=[-1, -1, 2, -1], index=[-1, -1, 5, -1],
    action=[DELIVER, SUPPRESS, DELIVER, ENTER], counts=[0, 1, 0, 2], safe=[0, 0, 0, 1])
HEALTHY_RECORDS = [
    completion_record(1300, 7, 2, 300), completion_record(1300, 8, 3, 300), completion_record(1500, 9, 0, 500),
    verdict_record(1900, 10, 10, 0, 1000, [10, 20, 30], D0, 4,
                   {"rendezvous": "complete", "skew_ns": 200, "variant": "pass"}, OPERATIONAL, DELIVER_OUTPUT, 0),
    completion_record(2400, 11, 0, 400), completion_record(2450, 12, 3, 450),
    verdict_record(2900, 13, 10, 1, 2000, [10, 20, 30], D0, 4,
                   {"rendezvous": "timeout", "present_ids": [0, 3], "missing_ids": [2], "variant": "timeout"},
                   OPERATIONAL, SUPPRESS_OUTPUT, 1),
    completion_record(3150, 14, 3, 150, digest=777, classification=2), completion_record(3200, 15, 0, 200),
    completion_record(3250, 16, 2, 250),
    verdict_record(3900, 17, 11, 0, 3000, [5, 5, 5], D1, 1,
                   {"rendezvous": "complete", "skew_ns": 100,
                    "bus_divergence": {"replica_a": 0, "replica_b": 3, "event_index": 5}, "variant": "pass",
                    "agreeing_ids": [0, 2], "agreed_digest": D1}, OPERATIONAL, DELIVER_OUTPUT, 0),
    completion_record(4300, 18, 0, 300), completion_record(4300, 19, 2, 300, digest=888, classification=1),
    completion_record(4300, 20, 3, 300, digest=999, classification=3),
    verdict_record(4900, 21, 11, 1, 4000, [0, 0, 0], D1, 1,
                   {"rendezvous": "complete", "skew_ns": 0, "variant": "mismatch", "groups": [[0], [2], [3]]},
                   SAFE_OFF, ENTER_SAFE_OFF, 2),
]
# No healthy replica: two degraded rounds, verdicts alone.
NONE_HEALTHY = chunk(
    frame_ids=[12, 13], reps=[0, 0], clean=[D1, D0], classes=[1, 4], starts=[5000, 5100], ends=[5100, 5200],
    feed=np.zeros((2, 0)), comp=np.zeros((2, 0)), emit=np.zeros((2, 0)), present=np.zeros((2, 0)),
    complete=[0, 0], skew=[0, 0], verdict=[DEGRADED, DEGRADED], labels=np.zeros((2, 0)), best=[0, 0],
    agreed=[D1, D0], digests=None, outputs=None, diverged=[0, 0], other=None, index=None,
    action=[SUPPRESS, SUPPRESS], counts=[3, 4], safe=[1, 1])
NONE_HEALTHY_RECORDS = [
    verdict_record(t, seq, frame_id, 0, t - 100, [], digest, cls, {"variant": "degraded",
                                                                  "reason": "no healthy replicas"},
                   SAFE_OFF, SUPPRESS_OUTPUT, count)
    for t, seq, frame_id, digest, cls, count in ((5100, 22, 12, D1, 1, 3), (5200, 23, 13, D0, 4, 4))
]
# Replicas 0 and 1 under 1oo2, two passes in which every replica agrees: a
# stuck output that repeats the clean one, grouped but agreeing on the clean
# output, so it names no agreement (round 0); a Tolerance pass whose pivot,
# replica 0, changed its output within eps, so the agreed digest 555 is not
# the clean one and the pass names it (round 1).
AGREEING = chunk(
    frame_ids=[14, 15], reps=[0, 0], clean=[D0, D1], classes=[4, 1], starts=[6000, 6500], ends=[6500, 7000],
    feed=np.zeros((2, 2)), comp=[[100, 200], [300, 250]], emit=np.ones((2, 2)), present=np.ones((2, 2)),
    complete=[1, 1], skew=[100, 50], verdict=[PASS, PASS], labels=np.zeros((2, 2)), best=[0, 0], agreed=[D0, 555],
    digests=[[D0, D0], [555, D1]], outputs=np.eye(5, dtype=np.int16)[[[4, 4], [2, 1]]], diverged=[0, 0],
    other=None, index=None, action=[DELIVER, DELIVER], counts=[0, 0], safe=[0, 0])
AGREEING_RECORDS = [
    completion_record(6100, 24, 0, 100), completion_record(6200, 25, 1, 200),
    verdict_record(6500, 26, 14, 0, 6000, [0, 0], D0, 4, {"rendezvous": "complete", "skew_ns": 100,
                                                          "variant": "pass"}, OPERATIONAL, DELIVER_OUTPUT, 0),
    completion_record(6750, 27, 1, 250), completion_record(6800, 28, 0, 300, digest=555, classification=2),
    verdict_record(7000, 29, 15, 0, 6500, [0, 0], D1, 1,
                   {"rendezvous": "complete", "skew_ns": 50, "variant": "pass", "agreeing_ids": [0, 1],
                    "agreed_digest": 555}, OPERATIONAL, DELIVER_OUTPUT, 0),
]


@pytest.mark.parametrize("size", [1, trace.WRITE_ROUNDS])
def test_rounds_lays_out_slots_and_sparse_cases(size):
    pieces = []
    with mock.patch.object(trace, "WRITE_ROUNDS", size):
        assert trace.rounds(pieces.append, 7, HEALTHY, [0, 2, 3], 2) == 22
        assert trace.rounds(pieces.append, 22, NONE_HEALTHY, [], 2) == 24
        assert trace.rounds(pieces.append, 24, AGREEING, [0, 1], 1) == 30
    records = HEALTHY_RECORDS + NONE_HEALTHY_RECORDS + AGREEING_RECORDS
    assert "".join(pieces).splitlines(keepends=True) == list(map(line, records))
    assert len(pieces) == (8 if size == 1 else 3)
