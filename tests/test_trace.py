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
