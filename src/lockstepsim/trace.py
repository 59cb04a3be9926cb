"""trace.jsonl lines: one template per record kind.

A template's `format` takes t_ns, seq, the round's frame fields (`frame`,
formatted once per round) and the record's remaining fields in order, and
gives exactly the bytes of `json.dumps(record, separators=(",", ":"))` and
a newline. `in_order` writes a few records in (t_ns, seq) order;
`pass_rounds` builds the records of many pass rounds a kind at a time, from
arrays, and gives their text in (t_ns, seq) order.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .voting import PASS

frame = '"frame_id":{},"repetition":{}'.format
_HEAD = '{{"t_ns":{},"seq":{},"kind":'
RELEASE = _HEAD + '"input_release",{}}}\n'
DELIVERY = _HEAD + '"delivery",{},"replica_id":{},"skew_ns":{}}}\n'
COMPLETION = (_HEAD + '"completion",{},"replica_id":{},"turnaround_ns":{},'
              '"compute_cycles":{},"digest":{},"classification":{}}}\n')
COMPLETE = _HEAD + '"rendezvous",{},"outcome":"complete","skew_ns":{}}}\n'
TIMEOUT = _HEAD + '"rendezvous",{},"outcome":"timeout","present_ids":{},"missing_ids":{}}}\n'
DIVERGENCE = (_HEAD + '"bus_divergence",{},"replica_a":{},"replica_b":{},"event_index":{},'
              '"reason":"payload digest mismatch"}}\n')
VERDICT = _HEAD + '"verdict",{},"variant":"{}"{}}}\n'
SAFETY = _HEAD + '"safety_action",{},"state":"{}","action":"{}","consecutive_faults":{}}}\n'
PTP = _HEAD + '"ptp","replica_id":{},"offset_ns":{},"path_delay_ns":{}}}\n'
AGREED = ',"agreeing_ids":{},"agreed_digest":{}'.format  # a pass verdict's fields


def ids(values) -> str:
    """JSON text of a list of ints, as json.dumps writes it compactly."""
    return "[" + ",".join(map(str, values)) + "]"


def verdict_fields(verdict) -> str:
    """JSON text of the verdict record's fields after "variant"."""
    if verdict.variant == PASS:
        return AGREED(ids(verdict.agreeing_ids), verdict.agreed.digest)
    if verdict.variant == "mismatch":
        return ',"groups":[' + ",".join(ids(g) for g in verdict.groups) + "]"
    if verdict.variant == "timeout":
        return f',"missing_ids":{ids(verdict.missing_ids)}'
    return f',"reason":{json.dumps(verdict.reason)}'


def in_order(records) -> str:
    """Text of (t_ns, seq, line) records in (t_ns, seq) order."""
    return "".join([line for _, _, line in sorted(records)])


def pass_rounds(frames, replica_ids, starts, seqs, feed, comp, spread, durations, completion, safety) -> str:
    """Text of the records of pass rounds, in (t_ns, seq) order. Each array
    holds one row per round: its release time and first seq, each replica's
    delivery and completion time after the release (`feed`, `comp`), the
    rendezvous skew and the round's duration. `frames` holds each round's
    frame fields, `completion` is (compute cycles, the clean output's digest
    and classification per round) and `safety` the safety record's (state,
    action, consecutive_faults). Seq runs as `experiment` lays it out:
    release, deliveries, completions in delivery order, then rendezvous,
    verdict and safety action."""
    k = len(replica_ids)
    keys, lines = [], []

    def add(t, seq, template, *columns):
        keys.append((t, seq))
        lines.extend(map(template.format, t.tolist(), seq.tolist(), frames, *columns))

    add(starts, seqs, RELEASE)
    # a completion's seq follows the (time, replica) order of the deliveries
    order = np.argsort(feed, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(k), axis=1)
    cycles, digests, classes = completion
    for i, rid in enumerate(replica_ids):
        add(starts + feed[:, i], seqs + 1 + i, DELIVERY, repeat(rid), feed[:, i].tolist())
        add(starts + comp[:, i], seqs + 1 + k + rank[:, i], COMPLETION, repeat(rid),
            comp[:, i].tolist(), repeat(cycles), digests, classes)
    ends, last = starts + durations, seqs + 1 + 2 * k
    add(ends, last, COMPLETE, spread.tolist())
    add(ends, last + 1, VERDICT, repeat(PASS), map(AGREED, repeat(ids(replica_ids)), digests))
    add(ends, last + 2, SAFETY, *map(repeat, safety))
    ts, seqs = (np.concatenate(column) for column in zip(*keys))
    return "".join(map(lines.__getitem__, np.lexsort((seqs, ts)).tolist()))
