"""Each trace record function against `json.dumps` of the record it writes,
and the round writer's pieces."""

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
    DELIVER_OUTPUT,
    ENTER_SAFE_OFF,
    OPERATIONAL,
    SAFE_OFF,
    SUPPRESS_OUTPUT,
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
    assert trace.timeout(t, seq, trace.frame(frame_id, rep), trace.ids(present), trace.ids(missing)) == line(want)


@given(times, seqs, small, small, st.integers(0, 7), st.integers(0, 7), small)
@settings(max_examples=100, deadline=None)
def test_divergence(t, seq, frame_id, rep, a, b, index):
    want = {**head(t, seq, "bus_divergence", frame_id, rep), "replica_a": a, "replica_b": b,
            "event_index": index, "reason": "payload digest mismatch"}
    assert trace.divergence(t, seq, trace.frame(frame_id, rep), a, b, index) == line(want)


verdicts = st.one_of(
    st.builds(lambda ids, d: ("pass", trace.agreed(trace.ids(ids), d), {"agreeing_ids": ids, "agreed_digest": d}),
              id_lists, digests),
    st.builds(lambda groups: ("mismatch", trace.groups(groups), {"groups": groups}), st.lists(id_lists, max_size=4)),
    st.builds(lambda ids: ("timeout", trace.missing(trace.ids(ids)), {"missing_ids": ids}), id_lists),
    st.builds(lambda text: ("degraded", trace.reason(text), {"reason": text}), reasons),
)


@given(times, seqs, small, small, verdicts, states, actions, small)
@settings(max_examples=200, deadline=None)
def test_verdict_and_safety(t, seq, frame_id, rep, verdict_and_fields, state, action, count):
    variant, fields, want_fields = verdict_and_fields
    verdict = {**head(t, seq, "verdict", frame_id, rep), "variant": variant, **want_fields}
    safety = {**head(t, seq + 1, "safety_action", frame_id, rep), "state": state, "action": action,
              "consecutive_faults": count}
    got = trace.verdict_and_safety(t, seq, trace.frame(frame_id, rep), variant, fields,
                                   trace.safety_fields(state, action, count))
    assert got == line(verdict) + line(safety)


@given(times, seqs, st.integers(0, 7), signed, signed)
@settings(max_examples=100, deadline=None)
def test_ptp(t, seq, rid, offset, delay):
    want = {**head(t, seq, "ptp"), "replica_id": rid, "offset_ns": offset, "path_delay_ns": delay}
    assert trace.ptp(t, seq, rid, offset, delay) == line(want)


def test_in_order_sorts_by_time_then_seq():
    times, seqs = [np.array([5, 1]), np.array([5, 1])], [np.array([0, 9]), np.array([2, 3])]
    assert trace.in_order(times, seqs, ["a", "b", "c", "d"]) == "dbac"


# The duplex flags every round in every mask. The golden 2oo3 run has
# dropped outputs, timeouts and bus divergences in some rounds only, so
# with pieces of 2 or 3 rounds a piece edge falls inside each masked kind
# of record; with pieces of 1, every mask of a piece is all true or all
# false.
@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("raw", [zero_jitter_duplex(frames=5, reps=2), CASES["tight-2oo3-all-faults"]()],
                         ids=["duplex", "tight-2oo3-all-faults"])
def test_rounds_writes_whole_rounds_a_piece_at_a_time(raw, size):
    cfg = config_from_dict(raw)
    whole, pieces = [], []
    ExperimentRunner(cfg, whole.append).run()
    with mock.patch.object(trace, "WRITE_ROUNDS", size):
        ExperimentRunner(cfg, pieces.append).run()
    assert "".join(pieces) == "".join(whole) and len(whole) == 1
    releases = [text.count('"kind":"input_release"') for text in pieces]
    rounds = cfg.workload.frame_count * cfg.workload.repetitions_per_frame
    assert releases[:-1] == [size] * (len(pieces) - 1) and sum(releases) == rounds
    assert all('"kind":"safety_action"' in text.splitlines()[-1] for text in pieces)
