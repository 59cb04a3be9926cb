"""Each trace line template and field text against `json.dumps` of the
record it writes, the round writer on hand-built columns, drawn and fixed,
its pieces, and the writer contract: `bytes`, which the file holds as they
are."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import zero_jitter_duplex
from lockstepsim import trace
from lockstepsim.config import config_from_dict
from lockstepsim.experiment import TRACE_FILENAME, ExperimentRunner, run_to_directory
from lockstepsim.voting import VERDICTS
from test_golden import CASES

GOLDEN = ["tight-2oo3-all-faults", "degraded-no-healthy", "loose-3-one-failed"]

times = st.integers(0, (1 << 62) - 1)
seqs = st.integers(0, 10**12)
small = st.integers(0, 10**6)
signed = st.integers(-(1 << 62), 1 << 62)
digests = st.integers(0, (1 << 64) - 1)
id_lists = st.lists(st.integers(0, 7), max_size=8)


def line(record):
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def head(t, seq, kind):
    return {"t_ns": t, "seq": seq, "kind": kind}


@given(times, seqs, st.integers(0, 7), signed, st.none() | st.tuples(digests, small))
@settings(max_examples=100, deadline=None)
def test_completion(t, seq, rid, turnaround, changed):
    want = {**head(t, seq, "completion"), "replica_id": rid, "turnaround_ns": turnaround}
    text = b""
    if changed is not None:
        want.update(digest=changed[0], classification=changed[1])
        text = trace.OUTPUT % changed
    assert trace.COMPLETION % (t, seq, rid, turnaround, text) == line(want)


divergences = st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7), small)
variants = st.one_of(
    st.builds(lambda ids, d: ("pass", trace.AGREED % (trace.ids(ids), d), {"agreeing_ids": ids, "agreed_digest": d}),
              id_lists, digests),
    st.builds(lambda groups: ("mismatch", trace.groups(groups), {"groups": groups}), st.lists(id_lists, max_size=4)),
    st.just(("timeout", b"", {})),
    st.just(("degraded", b"", {})),
)


@given(times, seqs, st.none() | st.lists(signed, min_size=1, max_size=8), st.none() | st.tuples(digests, small),
       divergences, variants)
@settings(max_examples=200, deadline=None)
def test_verdict(t, seq, deliveries, clean, divergence, variant):
    name, fields, want_fields = variant
    want = head(t, seq, "verdict")
    if deliveries is not None:
        want["delivery_ns"] = deliveries
    # the tail: the fields after the deliveries
    tail = b""
    if clean is not None:
        want.update(digest=clean[0], classification=clean[1])
        tail += trace.OUTPUT % clean
    if divergence is not None:
        want["bus_divergence"] = dict(zip(("replica_a", "replica_b", "event_index"), divergence))
        tail += trace.DIVERGED % divergence
    want.update(variant=name, **want_fields)
    tail += f',"variant":"{name}"'.encode() + fields
    deliveries = deliveries or []
    assert trace.verdict_template(len(deliveries)) % (t, seq, *deliveries, tail) == line(want)


@given(times, seqs, st.integers(0, 7), signed, signed)
@settings(max_examples=100, deadline=None)
def test_ptp(t, seq, rid, offset, delay):
    want = {**head(t, seq, "ptp"), "replica_id": rid, "offset_ns": offset, "path_delay_ns": delay}
    assert trace.ptp(t, seq, rid, offset, delay) == line(want)


# The golden 2oo3 run has dropped and changed outputs, timeouts and bus
# divergences in some rounds only, so with pieces of 2 or 3 rounds a piece
# edge falls beside each; with pieces of 1, a piece is one round. The run
# with no healthy replica writes verdicts alone, and the one with a failed
# replica writes the columns of replicas 0 and 2.
@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("raw", [zero_jitter_duplex(frames=5, reps=2), *(CASES[name]() for name in GOLDEN)],
                         ids=["duplex", *GOLDEN])
def test_rounds_writes_whole_rounds_a_piece_at_a_time(raw, size):
    cfg = config_from_dict(raw)
    whole, pieces = [], []
    ExperimentRunner(cfg, whole.append).run()
    with mock.patch.object(trace, "WRITE_ROUNDS", size):
        ExperimentRunner(cfg, pieces.append).run()
    assert b"".join(pieces) == b"".join(whole)
    # the header and each ptp line one write each, then one piece per write
    lead = 1 + cfg.topology.replica_count * cfg.topology.ptp.enabled
    rounds = cfg.workload.frame_count * cfg.workload.repetitions_per_frame
    for writes, per in ((whole, trace.WRITE_ROUNDS), (pieces, size)):
        assert all(text.count(b"\n") == 1 for text in writes[:lead])
        verdicts = [text.count(b'"kind":"verdict"') for text in writes[lead:]]
        assert verdicts[:-1] == [per] * (len(verdicts) - 1) and sum(verdicts) == rounds
        assert all(b'"kind":"verdict"' in text.splitlines()[-1] for text in writes[lead:])


@pytest.mark.parametrize("name", ["tight-2oo3-all-faults", "loose-3-one-failed"])
def test_the_writer_gets_bytes_that_the_file_holds_as_they_are(name, tmp_path):
    cfg = config_from_dict(CASES[name](), env={})
    calls = []
    ExperimentRunner(cfg, calls.append).run()
    assert calls and all(type(text) is bytes for text in calls)
    run_to_directory(cfg, tmp_path)
    assert (tmp_path / TRACE_FILENAME).read_bytes() == b"".join(calls)


def chunk(**columns):
    """A chunk's columns for `trace.rounds`, each as an array."""
    kinds = dict(clean=np.uint64, agreed=np.uint64, digests=np.uint64, outputs=np.int16, emit=bool, diverged=bool)
    return {key: None if v is None else np.array(v, dtype=kinds.get(key, np.int64)) for key, v in columns.items()}


def completion_record(t, seq, rid, turnaround, **changed):
    return {**head(t, seq, "completion"), "replica_id": rid, "turnaround_ns": turnaround, **changed}


def verdict_record(t, seq, **fields):
    return {**head(t, seq, "verdict"), **fields}


D0, D1 = (1 << 64) - 5, 12345
PASS, MISMATCH, TIMEOUT, DEGRADED = map(VERDICTS.index, ("pass", "mismatch", "timeout", "degraded"))

# Replicas 0, 2 and 3 over two frames of two rounds each, with feed jitter:
# a completion-time tie in a pass on the clean output, which names no
# agreement (round 0); an output dropped by replica 2, earliest but written
# nowhere, in a timeout (round 1); an output changed by replica 3, first in
# time, with a bus divergence, in a pass that names the agreeing replicas 0
# and 2 (round 2); a three-way mismatch of tied completions (round 3).
# Rounds 0 and 2 write the clean output.
HEALTHY = chunk(
    reps=[0, 1, 0, 1], clean=[D0, D0, D1, D1], classes=[4, 1],
    starts=[1000, 2000, 3000, 4000], ends=[1900, 2900, 3900, 4900],
    feed=[[10, 20, 30], [10, 20, 30], [5, 5, 5], [0, 0, 0]],
    comp=[[500, 300, 300], [400, 100, 450], [200, 250, 150], [300, 300, 300]],
    emit=[[1, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1]], verdict=[PASS, TIMEOUT, PASS, MISMATCH],
    labels=[[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 1, 2]], best=[0, 0, 0, 0], agreed=[D0, D0, D1, D1],
    digests=[[D0, D0, D0], [D0, D0, D0], [D1, D1, 777], [D1, 888, 999]],
    outputs=np.eye(4, dtype=np.int16)[[[0] * 3, [0] * 3, [1, 1, 2], [1, 1, 3]]],  # class: where the 1 is
    diverged=[0, 0, 1, 0], other=[-1, -1, 2, -1], index=[-1, -1, 5, -1])
HEALTHY_RECORDS = [
    completion_record(1300, 7, 2, 300), completion_record(1300, 8, 3, 300), completion_record(1500, 9, 0, 500),
    verdict_record(1900, 10, delivery_ns=[10, 20, 30], digest=D0, classification=4, variant="pass"),
    completion_record(2400, 11, 0, 400), completion_record(2450, 12, 3, 450),
    verdict_record(2900, 13, delivery_ns=[10, 20, 30], variant="timeout"),
    completion_record(3150, 14, 3, 150, digest=777, classification=2), completion_record(3200, 15, 0, 200),
    completion_record(3250, 16, 2, 250),
    verdict_record(3900, 17, delivery_ns=[5, 5, 5], digest=D1, classification=1,
                   bus_divergence={"replica_a": 0, "replica_b": 3, "event_index": 5}, variant="pass",
                   agreeing_ids=[0, 2], agreed_digest=D1),
    completion_record(4300, 18, 0, 300), completion_record(4300, 19, 2, 300, digest=888, classification=1),
    completion_record(4300, 20, 3, 300, digest=999, classification=3),
    verdict_record(4900, 21, delivery_ns=[0, 0, 0], variant="mismatch", groups=[[0], [2], [3]]),
]
# No healthy replica: two degraded rounds of one frame each, verdicts alone.
NONE_HEALTHY = chunk(
    reps=[0, 0], clean=[D1, D0], classes=[1, 4], starts=[5000, 5100], ends=[5100, 5200],
    feed=None, comp=np.zeros((2, 0)), emit=np.zeros((2, 0)), verdict=[DEGRADED, DEGRADED],
    labels=np.zeros((2, 0)), best=[0, 0], agreed=[D1, D0], digests=None, outputs=None, diverged=[0, 0],
    other=None, index=None)
NONE_HEALTHY_RECORDS = [
    verdict_record(t, seq, digest=digest, classification=cls, variant="degraded")
    for t, seq, digest, cls in ((5100, 22, D1, 1), (5200, 23, D0, 4))
]
# Replicas 0 and 1 under 1oo2, no feed jitter, two frames of one round, two
# passes in which every replica agrees: a stuck output that repeats the
# clean one, grouped but agreeing on the clean output, so it names no
# agreement (round 0); a Tolerance pass whose pivot, replica 0, changed its
# output within eps, so the agreed digest 555 is not the clean one and the
# pass names it (round 1).
AGREEING = chunk(
    reps=[0, 0], clean=[D0, D1], classes=[4, 1], starts=[6000, 6500], ends=[6500, 7000],
    feed=None, comp=[[100, 200], [300, 250]], emit=np.ones((2, 2)), verdict=[PASS, PASS], labels=np.zeros((2, 2)),
    best=[0, 0], agreed=[D0, 555], digests=[[D0, D0], [555, D1]],
    outputs=np.eye(5, dtype=np.int16)[[[4, 4], [2, 1]]], diverged=[0, 0], other=None, index=None)
AGREEING_RECORDS = [
    completion_record(6100, 24, 0, 100), completion_record(6200, 25, 1, 200),
    verdict_record(6500, 26, digest=D0, classification=4, variant="pass"),
    completion_record(6750, 27, 1, 250), completion_record(6800, 28, 0, 300, digest=555, classification=2),
    verdict_record(7000, 29, digest=D1, classification=1, variant="pass",
                   agreeing_ids=[0, 1], agreed_digest=555),
]


@pytest.mark.parametrize("size", [1, trace.WRITE_ROUNDS])
def test_rounds_lays_out_slots_and_sparse_cases(size):
    pieces = []
    with mock.patch.object(trace, "WRITE_ROUNDS", size):
        assert trace.rounds(pieces.append, 7, HEALTHY, [0, 2, 3]) == 22
        assert trace.rounds(pieces.append, 22, NONE_HEALTHY, []) == 24
        assert trace.rounds(pieces.append, 24, AGREEING, [0, 1]) == 30
    records = HEALTHY_RECORDS + NONE_HEALTHY_RECORDS + AGREEING_RECORDS
    assert b"".join(pieces).splitlines(keepends=True) == list(map(line, records))
    assert len(pieces) == (8 if size == 1 else 3)


INT64_MAX = (1 << 63) - 1


def test_rounds_prints_nothing_of_an_unemitted_slot_however_wide_its_values():
    # Replicas 0 and 1, one round each, one output unemitted per round: its
    # slot holds the int64-max sentinel time (round 0) or a negative
    # turnaround (round 1), and a changed 20-digit digest, yet "%.0a" prints
    # none of its 5 values.
    c = chunk(
        reps=[0, 1], clean=[D0, D0], classes=[4], starts=[0, 1000], ends=[900, 1900], feed=None,
        comp=[[300, INT64_MAX], [-5, 400]], emit=[[1, 0], [0, 1]], verdict=[TIMEOUT, TIMEOUT],
        labels=np.zeros((2, 2)), best=[0, 0], agreed=[D0, D0], digests=[[D0, (1 << 64) - 1], [10**19, D0]],
        outputs=np.eye(5, dtype=np.int16)[[[4, 1], [2, 4]]], diverged=[0, 0], other=None, index=None)
    pieces = []
    assert trace.rounds(pieces.append, 3, c, [0, 1]) == 7
    text = b"".join(pieces)
    assert text.splitlines(keepends=True) == list(map(line, [
        completion_record(300, 3, 0, 300), verdict_record(900, 4, digest=D0, classification=4, variant="timeout"),
        completion_record(1400, 5, 1, 400), verdict_record(1900, 6, variant="timeout")]))
    for value in (INT64_MAX, (1 << 64) - 1, 10**19, -5, 995):
        assert b"%d" % value not in text


WIDTH = 3  # output elements, so a changed output's classification is its argmax


@st.composite
def chunks(draw):
    """A chunk of rounds of every shape, as lists: k healthy replicas (none
    to eight, the most a topology allows), each output emitted or not, any
    bus divergence, any verdict, a frame's first round or not, and changed
    outputs if `digests` is not None. Returns (columns, replica ids)."""
    k, n = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    replica_ids = sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k)))
    valued, fed = draw(st.booleans()), draw(st.booleans()) and k > 0

    def per(values):  # one per healthy replica
        return st.lists(values, min_size=k, max_size=k)

    rows = []
    for _ in range(n):
        clean = draw(digests)
        near = st.sampled_from([clean, clean, draw(digests)])
        start = draw(st.integers(0, 1 << 40))
        comp = draw(per(st.integers(0, 3)))  # few values, so completion times tie
        column = st.integers(0, max(k - 1, 0))  # a group or a replica's column
        row = dict(reps=draw(st.integers(0, 2)), clean=clean, classes=draw(small),
                   starts=start, ends=start + draw(st.integers(3, 1000)),
                   feed=draw(per(st.integers(0, 50))), comp=comp, emit=draw(per(st.booleans())),
                   verdict=draw(st.integers(0, 3)) if k else DEGRADED, labels=draw(per(column)), best=draw(column),
                   agreed=draw(near), digests=draw(per(near)),
                   outputs=draw(per(st.lists(st.integers(-3, 3), min_size=WIDTH, max_size=WIDTH))),
                   diverged=draw(st.booleans()) and k > 0, other=draw(column), index=draw(small))
        rows.append(row)
    c = {key: [row[key] for row in rows] for key in rows[0]}
    c["classes"] = [row["classes"] for row in rows if row["reps"] == 0]
    if not valued:
        c["digests"] = c["outputs"] = None
    if not fed:
        c["feed"] = None
    return c, replica_ids


def chunk_records(c, replica_ids, seq):
    """The records of a chunk, built round by round from the schema."""
    k = len(replica_ids)
    classes = iter(c["classes"])
    for r in range(len(c["starts"])):
        start, comp, clean = c["starts"][r], c["comp"][r], c["clean"][r]
        emitted = [j for j in range(k) if c["emit"][r][j]]
        for j in sorted(emitted, key=lambda j: (comp[j], replica_ids[j])):
            changed = {}
            if c["digests"] is not None and c["digests"][r][j] != clean:
                values = c["outputs"][r][j]
                changed = {"digest": c["digests"][r][j], "classification": values.index(max(values))}
            yield completion_record(start + comp[j], seq, replica_ids[j], comp[j], **changed)
            seq += 1
        fields = {}
        if c["feed"] is not None:
            fields["delivery_ns"] = c["feed"][r]
        if c["reps"][r] == 0:
            fields.update(digest=clean, classification=next(classes))
        if c["diverged"][r]:
            fields["bus_divergence"] = {"replica_a": replica_ids[min(emitted, default=0)],
                                        "replica_b": replica_ids[c["other"][r]], "event_index": c["index"][r]}
        code, labels = c["verdict"][r], c["labels"][r]
        fields["variant"] = VERDICTS[code]
        agreeing = [rid for rid, g in zip(replica_ids, labels) if g == c["best"][r]]
        if code == PASS and (agreeing != replica_ids or c["agreed"][r] != clean):
            fields.update(agreeing_ids=agreeing, agreed_digest=c["agreed"][r])
        elif code == MISMATCH:
            fields["groups"] = [[rid for rid, g in zip(replica_ids, labels) if g == group]
                                for group in range(max(labels) + 1)]
        yield verdict_record(c["ends"][r], seq, **fields)
        seq += 1


@given(chunks(), seqs, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_rounds_writes_each_round_shape_as_its_records(drawn, first_seq, size):
    c, replica_ids = drawn
    n, k = len(c["starts"]), len(replica_ids)
    columns = chunk(**c)
    for key in ("feed", "comp", "emit", "labels", "digests"):
        if columns[key] is not None:
            columns[key] = columns[key].reshape(n, k)
    if columns["outputs"] is not None:
        columns["outputs"] = columns["outputs"].reshape(n, k, WIDTH)
    pieces = []
    with mock.patch.object(trace, "WRITE_ROUNDS", size):
        end = trace.rounds(pieces.append, first_seq, columns, replica_ids)
    records = list(chunk_records(c, replica_ids, first_seq))
    assert b"".join(pieces).splitlines(keepends=True) == list(map(line, records))
    assert end == first_seq + len(records) and len(pieces) == -(-n // size)
