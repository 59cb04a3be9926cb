"""trace.jsonl lines: one record function per record kind.

A record function is a single f-string. It takes t_ns, seq, the round's
frame fields (`frame`, formatted once per round) and the record's remaining
fields in order, and gives exactly the bytes of
`json.dumps(record, separators=(",", ":"))` and a newline. A completion, a
verdict and a safety action take their trailing fields as one text
(`completion_fields`, `verdict_fields`, `safety_fields`), so a run of pass
rounds formats a tail once per frame or once per piece and the scalar
rounds format their own. `pass_end` writes the three records that end a
pass round. `in_order` writes a few records in (t_ns, seq) order;
`pass_rounds` builds the records of many pass rounds a kind at a time, from
arrays, and gives their text in (t_ns, seq) order.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .voting import PASS


def frame(frame_id, repetition):
    return f'"frame_id":{frame_id},"repetition":{repetition}'


def release(t, seq, fr):
    return f'{{"t_ns":{t},"seq":{seq},"kind":"input_release",{fr}}}\n'


def delivery(t, seq, fr, replica_id, skew_ns):
    return f'{{"t_ns":{t},"seq":{seq},"kind":"delivery",{fr},"replica_id":{replica_id},"skew_ns":{skew_ns}}}\n'


def completion_fields(compute_cycles, digest, classification):
    return f',"compute_cycles":{compute_cycles},"digest":{digest},"classification":{classification}'


def completion(t, seq, fr, replica_id, turnaround_ns, fields):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"completion",{fr},"replica_id":{replica_id},'
            f'"turnaround_ns":{turnaround_ns}{fields}}}\n')


def complete(t, seq, fr, skew_ns):
    return f'{{"t_ns":{t},"seq":{seq},"kind":"rendezvous",{fr},"outcome":"complete","skew_ns":{skew_ns}}}\n'


def timeout(t, seq, fr, present_ids, missing_ids):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"rendezvous",{fr},"outcome":"timeout",'
            f'"present_ids":{present_ids},"missing_ids":{missing_ids}}}\n')


def divergence(t, seq, fr, replica_a, replica_b, event_index):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"bus_divergence",{fr},"replica_a":{replica_a},'
            f'"replica_b":{replica_b},"event_index":{event_index},"reason":"payload digest mismatch"}}\n')


def verdict(t, seq, fr, variant, fields):
    return f'{{"t_ns":{t},"seq":{seq},"kind":"verdict",{fr},"variant":"{variant}"{fields}}}\n'


def safety_fields(state, action, consecutive_faults):
    return f',"state":"{state}","action":"{action}","consecutive_faults":{consecutive_faults}'


def safety(t, seq, fr, fields):
    return f'{{"t_ns":{t},"seq":{seq},"kind":"safety_action",{fr}{fields}}}\n'


def ptp(t, seq, replica_id, offset_ns, path_delay_ns):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"ptp","replica_id":{replica_id},'
            f'"offset_ns":{offset_ns},"path_delay_ns":{path_delay_ns}}}\n')


def pass_end(t, seq, fr, skew_ns, agreed_fields, safety_tail):
    """The rendezvous, verdict and safety action records of a pass round."""
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"rendezvous",{fr},"outcome":"complete","skew_ns":{skew_ns}}}\n'
            f'{{"t_ns":{t},"seq":{seq + 1},"kind":"verdict",{fr},"variant":"pass"{agreed_fields}}}\n'
            f'{{"t_ns":{t},"seq":{seq + 2},"kind":"safety_action",{fr}{safety_tail}}}\n')


def ids(values) -> str:
    """JSON text of a list of ints, as json.dumps writes it compactly."""
    return "[" + ",".join(map(str, values)) + "]"


def agreed(agreeing_ids, agreed_digest):
    """A pass verdict's fields; `agreeing_ids` is `ids` text."""
    return f',"agreeing_ids":{agreeing_ids},"agreed_digest":{agreed_digest}'


def verdict_fields(v) -> str:
    """JSON text of the verdict record's fields after "variant"."""
    if v.variant == PASS:
        return agreed(ids(v.agreeing_ids), v.agreed.digest)
    if v.variant == "mismatch":
        return ',"groups":[' + ",".join(ids(g) for g in v.groups) + "]"
    if v.variant == "timeout":
        return f',"missing_ids":{ids(v.missing_ids)}'
    return f',"reason":{json.dumps(v.reason)}'


def in_order(records) -> str:
    """Text of (t_ns, seq, line) records in (t_ns, seq) order."""
    return "".join([line for _, _, line in sorted(records)])


def pass_rounds(frames, replica_ids, starts, seqs, feed, comp, spread, durations,
                completions, agreements, safety_tail) -> str:
    """Text of the records of pass rounds, in (t_ns, seq) order. Each array
    holds one row per round: its release time and first seq, each replica's
    delivery and completion time after the release (`feed`, `comp`), the
    rendezvous skew and the round's duration. Per round, `frames` holds the
    frame fields, `completions` the clean output's `completion_fields` and
    `agreements` the pass verdict's `agreed` fields; `safety_tail` is the
    `safety_fields` every round of the piece shares. Seq runs as
    `experiment` lays it out: release, deliveries, completions in delivery
    order, then rendezvous, verdict and safety action."""
    k = len(replica_ids)
    keys, lines = [], []

    def add(t, seq, record, *columns):
        keys.append((t, seq))
        lines.extend(map(record, t.tolist(), seq.tolist(), frames, *columns))

    add(starts, seqs, release)
    # a completion's seq follows the (time, replica) order of the deliveries
    order = np.argsort(feed, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(k), axis=1)
    for i, rid in enumerate(replica_ids):
        add(starts + feed[:, i], seqs + 1 + i, delivery, repeat(rid), feed[:, i].tolist())
        add(starts + comp[:, i], seqs + 1 + k + rank[:, i], completion, repeat(rid),
            comp[:, i].tolist(), completions)
    # the three end records share a time and take consecutive seqs, so one
    # key orders them
    add(starts + durations, seqs + 1 + 2 * k, pass_end, spread.tolist(), agreements, repeat(safety_tail))
    ts, seqs = (np.concatenate(column) for column in zip(*keys))
    return "".join(map(lines.__getitem__, np.lexsort((seqs, ts)).tolist()))
