"""trace.jsonl lines: one record function per record kind.

A record function is a single f-string. It takes t_ns, seq, the round's
frame fields (`frame`, formatted once per round) and the record's remaining
fields in order, and gives exactly the bytes of
`json.dumps(record, separators=(",", ":"))` and a newline. Fields that vary
by outcome come as one text: a completion's tail (`completion_fields`), a
rendezvous outcome (`complete_fields`, `timeout_fields`), a verdict's
fields after its variant (`agreed`, `groups`, `missing`, `reason`) and a
safety action's tail (`safety_fields`), so the runner formats a shared tail
once. The records that end a round share its record time and take
consecutive seqs: `pass_end` writes those of a pass round without a bus
divergence, and `round_end` those of any round. `rounds` builds the records
of a run of rounds a kind at a time, from columns, and `in_order` gives
their text in (t_ns, seq) order.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .voting import ACTIONS, MISMATCH, OPERATIONAL, PASS, SAFE_OFF, TIMEOUT, VERDICTS

_PASS, _MISMATCH, _TIMEOUT = VERDICTS.index(PASS), VERDICTS.index(MISMATCH), VERDICTS.index(TIMEOUT)


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


def complete_fields(skew_ns):
    return f',"outcome":"complete","skew_ns":{skew_ns}'


def timeout_fields(present_ids, missing_ids):
    """A timeout's fields; the ids are `ids` text."""
    return f',"outcome":"timeout","present_ids":{present_ids},"missing_ids":{missing_ids}'


def rendezvous(t, seq, fr, outcome):
    return f'{{"t_ns":{t},"seq":{seq},"kind":"rendezvous",{fr}{outcome}}}\n'


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


def groups(members) -> str:
    """A mismatch verdict's fields: the replica ids of each group."""
    return ',"groups":[' + ",".join(map(ids, members)) + "]"


def missing(missing_ids):
    """A timeout verdict's fields; `missing_ids` is `ids` text."""
    return f',"missing_ids":{missing_ids}'


def reason(text):
    """A degraded verdict's fields."""
    return f',"reason":{json.dumps(text)}'


def round_end(t, seq, fr, outcome, divergence_fields, variant, fields, safety_tail):
    """The records that end a round, at its record time from seq on: the
    rendezvous with its `outcome` fields (none when None), the bus
    divergence with its (replica_a, replica_b, event_index) (none when
    None), the verdict with its variant and `fields`, and the safety
    action."""
    text = ""
    if outcome is not None:
        text = rendezvous(t, seq, fr, outcome)
        seq += 1
    if divergence_fields is not None:
        text += divergence(t, seq, fr, *divergence_fields)
        seq += 1
    return text + verdict(t, seq, fr, variant, fields) + safety(t, seq + 1, fr, safety_tail)


def in_order(times, seqs, lines) -> str:
    """Text of `lines` in (t_ns, seq) order. `times` and `seqs` hold the
    records' keys, as int64 arrays whose concatenation lines up with
    `lines`."""
    order = np.lexsort((np.concatenate(seqs), np.concatenate(times)))
    return "".join(map(lines.__getitem__, order.tolist()))


def rounds(c, first_seq, replica_ids, frames, completions, agreements, cycles, required):
    """(the seq after the last round, the text in (t_ns, seq) order) of the
    records of a run of rounds whose first takes seq `first_seq`.

    `c` holds each column the runner keeps, with one row per round and, in
    the two-axis ones, one column per healthy replica in `replica_ids`:
    starts, durations; feed, comp, emit (each delivery and completion time
    after the release, whether emitted); present, complete, skew (the
    rendezvous); verdict (an index in `VERDICTS`); labels, best, voted,
    agreed (the agreement groups, the winning group, whether the round was
    grouped, the agreed digest); diverged, other, index (the bus divergence:
    with which column, at which event); action, counts, safe (the safety
    switch after the round). When no value fault can fire, changed, digests
    and outputs are None; else they flag and hold each output that a value
    fault changed. Per round, `frames` holds the frame fields, `completions`
    the clean output's `completion_fields` and `agreements` the clean pass
    verdict's `agreed` fields; `cycles` is an inference's compute cycles and
    `required` the policy's required agreement.

    Each round takes seqs in this order: the input release; one delivery
    per healthy replica in replica order; one completion per delivery, in
    (time, seq) order of the deliveries (a dropped output takes its seq but
    writes no record); then, at the record time, the rendezvous, any bus
    divergence, the verdict and the safety action (`pass_end` or
    `round_end`). With no healthy replica a round takes 3 seqs.
    """
    rids = np.array(replica_ids, dtype=np.int64)
    k = len(rids)
    steps = 4 + 2 * k + c["diverged"] if k else np.full(len(frames), 3)
    seqs = first_seq + np.cumsum(steps) - steps
    times, keys, lines = [], [], []

    def add(at, t, seq, record, *fields):
        """The records of the rounds `at` (all when None), each from its
        time, seq, frame fields and `fields`: a list with one entry per
        round, or an iterator."""
        fr = frames
        if at is not None:
            at = at.tolist()
            t, seq = t[at], seq[at]
            fr, *fields = ([f[j] for j in at] if isinstance(f, list) else f for f in (fr, *fields))
        times.append(t)
        keys.append(seq)
        lines.extend(map(record, t.tolist(), seq.tolist(), fr, *fields))

    starts = c["starts"]
    add(None, starts, seqs, release)
    if k:
        feed, comp, emit, changed = c["feed"], c["comp"], c["emit"], c["changed"]
        # a completion's seq follows the (time, replica) order of the
        # deliveries, which is replica order when all come at the release
        completion_seqs = seqs[:, None] + (1 + k + np.arange(k))
        if feed.any():
            order = np.argsort(feed, axis=1, kind="stable")
            np.put_along_axis(completion_seqs, order, completion_seqs.copy(), axis=1)
        for i, rid in enumerate(replica_ids):
            add(None, starts + feed[:, i], seqs + 1 + i, delivery, repeat(rid), feed[:, i].tolist())
            tails = completions
            if changed is not None and changed[:, i].any():
                tails = completions.copy()
                for j in np.flatnonzero(changed[:, i]).tolist():
                    tails[j] = completion_fields(
                        cycles, int(c["digests"][j, i]), int(c["outputs"][j, i].argmax()))
            add(None if emit[:, i].all() else np.flatnonzero(emit[:, i]), starts + comp[:, i],
                completion_seqs[:, i], completion, repeat(rid), comp[:, i].tolist(), tails)

    # the records that end each round
    verdict, action, counts, safe = c["verdict"], c["action"], c["counts"], c["safe"]
    ends, end_seqs = starts + c["durations"], seqs + 1 + 2 * k
    if (action == action[0]).all() and (counts == counts[0]).all() and (safe == safe[0]).all():
        tails = [safety_fields(SAFE_OFF if safe[0] else OPERATIONAL, ACTIONS[action[0]], int(counts[0]))]
        tails *= len(frames)
    else:
        states = [SAFE_OFF if off else OPERATIONAL for off in safe.tolist()]
        tails = list(map(safety_fields, states, map(ACTIONS.__getitem__, action.tolist()), counts.tolist()))
    if c["voted"].any():
        agreements = agreements.copy()
        for j in np.flatnonzero(c["voted"] & (verdict == _PASS)).tolist():
            agreements[j] = agreed(ids(rids[c["labels"][j] == c["best"][j]].tolist()), int(c["agreed"][j]))
    plain = (verdict == _PASS) & ~c["diverged"]
    add(None if plain.all() else np.flatnonzero(plain), ends, end_seqs, pass_end,
        c["skew"].tolist(), agreements, tails)
    at = np.flatnonzero(~plain).tolist()
    if at:
        times.append(ends[at])
        keys.append(end_seqs[at])
        lines.extend(round_end(int(ends[j]), int(end_seqs[j]), frames[j],
                               *_end(c, j, rids, agreements[j], required), tails[j]) for j in at)
    return int(seqs[-1] + steps[-1]), in_order(times, keys, lines)


def _end(c, j, rids, agreed_fields, required):
    """(outcome, divergence, variant, fields) of round j, as `round_end`
    takes them; `agreed_fields` are its verdict's fields if it passed."""
    outcome = divergence = None
    if len(rids):
        present = c["present"][j]
        gone = ids(rids[~present].tolist())
        outcome = (complete_fields(int(c["skew"][j])) if c["complete"][j]
                   else timeout_fields(ids(rids[present].tolist()), gone))
    if c["diverged"][j]:
        divergence = (int(rids[c["emit"][j].argmax()]), int(rids[c["other"][j]]), int(c["index"][j]))
    v = int(c["verdict"][j])
    if v == _PASS:
        fields = agreed_fields
    elif v == _MISMATCH:
        labels = c["labels"][j]
        fields = groups([rids[labels == g].tolist() for g in range(labels.max() + 1)])
    elif v == _TIMEOUT:
        fields = missing(gone)
    else:
        fields = reason(f"{len(rids)} output(s) cannot reach {required}-way agreement"
                        if len(rids) else "no healthy replicas")
    return outcome, divergence, VERDICTS[v], fields

