"""Each trace record function against `json.dumps` of the record it writes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim import trace
from lockstepsim.voting import (
    DELIVER_OUTPUT,
    ENTER_SAFE_OFF,
    OPERATIONAL,
    SAFE_OFF,
    SUPPRESS_OUTPUT,
    Verdict,
)

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


def head(t, seq, kind, frame_id=None, rep=None):
    record = {"t_ns": t, "seq": seq, "kind": kind}
    if frame_id is not None:
        record.update(frame_id=frame_id, repetition=rep)
    return record


@given(times, seqs, small, small)
@settings(max_examples=100, deadline=None)
def test_release(t, seq, frame_id, rep):
    assert trace.release(t, seq, trace.frame(frame_id, rep)) == line(head(t, seq, "input_release", frame_id, rep))


@given(times, seqs, small, small, st.integers(0, 7), signed)
@settings(max_examples=100, deadline=None)
def test_delivery(t, seq, frame_id, rep, rid, skew):
    want = {**head(t, seq, "delivery", frame_id, rep), "replica_id": rid, "skew_ns": skew}
    assert trace.delivery(t, seq, trace.frame(frame_id, rep), rid, skew) == line(want)


@given(times, seqs, small, small, st.integers(0, 7), signed, small, digests, small)
@settings(max_examples=100, deadline=None)
def test_completion(t, seq, frame_id, rep, rid, turnaround, cycles, digest, cls):
    want = {**head(t, seq, "completion", frame_id, rep), "replica_id": rid, "turnaround_ns": turnaround,
            "compute_cycles": cycles, "digest": digest, "classification": cls}
    got = trace.completion(t, seq, trace.frame(frame_id, rep), rid, turnaround,
                           trace.completion_fields(cycles, digest, cls))
    assert got == line(want)


@given(times, seqs, small, small, signed)
@settings(max_examples=100, deadline=None)
def test_complete(t, seq, frame_id, rep, skew):
    want = {**head(t, seq, "rendezvous", frame_id, rep), "outcome": "complete", "skew_ns": skew}
    assert trace.complete(t, seq, trace.frame(frame_id, rep), skew) == line(want)


@given(times, seqs, small, small, id_lists, id_lists)
@settings(max_examples=100, deadline=None)
def test_timeout(t, seq, frame_id, rep, present, missing):
    want = {**head(t, seq, "rendezvous", frame_id, rep), "outcome": "timeout",
            "present_ids": present, "missing_ids": missing}
    got = trace.timeout(t, seq, trace.frame(frame_id, rep), trace.ids(present), trace.ids(missing))
    assert got == line(want)


@given(times, seqs, small, small, st.integers(0, 7), st.integers(0, 7), small)
@settings(max_examples=100, deadline=None)
def test_divergence(t, seq, frame_id, rep, a, b, index):
    want = {**head(t, seq, "bus_divergence", frame_id, rep), "replica_a": a, "replica_b": b,
            "event_index": index, "reason": "payload digest mismatch"}
    assert trace.divergence(t, seq, trace.frame(frame_id, rep), a, b, index) == line(want)


class _Agreed:
    def __init__(self, digest):
        self.digest = digest


verdicts = st.one_of(
    st.builds(lambda ids, d: (Verdict.passed(_Agreed(d), ids), {"agreeing_ids": ids, "agreed_digest": d}),
              id_lists, digests),
    st.builds(lambda groups: (Verdict.mismatch(groups), {"groups": groups}), st.lists(id_lists, max_size=4)),
    st.builds(lambda ids: (Verdict.timeout(ids), {"missing_ids": ids}), id_lists),
    st.builds(lambda reason: (Verdict.degraded(reason), {"reason": reason}), reasons),
)


@given(times, seqs, small, small, verdicts)
@settings(max_examples=200, deadline=None)
def test_verdict(t, seq, frame_id, rep, verdict_and_fields):
    v, fields = verdict_and_fields
    want = {**head(t, seq, "verdict", frame_id, rep), "variant": v.variant, **fields}
    assert trace.verdict(t, seq, trace.frame(frame_id, rep), v.variant, trace.verdict_fields(v)) == line(want)


@given(times, seqs, small, small, states, actions, small)
@settings(max_examples=100, deadline=None)
def test_safety(t, seq, frame_id, rep, state, action, count):
    want = {**head(t, seq, "safety_action", frame_id, rep), "state": state, "action": action,
            "consecutive_faults": count}
    assert trace.safety(t, seq, trace.frame(frame_id, rep), trace.safety_fields(state, action, count)) == line(want)


@given(times, seqs, st.integers(0, 7), signed, signed)
@settings(max_examples=100, deadline=None)
def test_ptp(t, seq, rid, offset, delay):
    want = {**head(t, seq, "ptp"), "replica_id": rid, "offset_ns": offset, "path_delay_ns": delay}
    assert trace.ptp(t, seq, rid, offset, delay) == line(want)


@given(times, seqs, small, small, signed, id_lists, digests, states, actions, small)
@settings(max_examples=100, deadline=None)
def test_pass_end_is_the_three_end_records(t, seq, frame_id, rep, skew, ids, digest, state, action, count):
    fr = trace.frame(frame_id, rep)
    agreed = trace.agreed(trace.ids(ids), digest)
    tail = trace.safety_fields(state, action, count)
    want = (trace.complete(t, seq, fr, skew) + trace.verdict(t, seq + 1, fr, "pass", agreed)
            + trace.safety(t, seq + 2, fr, tail))
    assert trace.pass_end(t, seq, fr, skew, agreed, tail) == want
    assert agreed == trace.verdict_fields(Verdict.passed(_Agreed(digest), ids))
