"""trace.jsonl: the one writer of a run's rounds, and its record functions.

A record function is a single f-string. It takes t_ns, seq, the round's
frame fields (`frame`) and the record's remaining fields in order, and
gives exactly the bytes of `json.dumps(record, separators=(",", ":"))` and
a newline. Fields that vary by outcome come as one text: a completion's
tail (`completion_fields`), a verdict's fields after its variant (`agreed`,
`groups`, `missing`, `reason`) and a safety action's tail
(`safety_fields`). A verdict and the safety action after it share a time
and take consecutive seqs, so `verdict_and_safety` writes both.

`rounds` is the one writer of the runner's rounds. Once per chunk, it
lays out the seqs as NumPy arrays; then each `WRITE_ROUNDS` rounds take a
slice of every column, and `_piece` writes them from those rows alone: it
builds the frame and text fields, finds the rounds of each kind of record
from the slices' masks, turns the arrays into lists, formats the records
and orders the text by (t_ns, seq) (`in_order`). A text shared by many
rounds is formatted once per piece: the clean output's tails once per
frame, the `_ids_of` texts once per set of ids, the safety tails once when
they are all equal; a changed output and a verdict other than pass take
their own. So every Python str and list lives for one piece only.
"""

from __future__ import annotations

import json

import numpy as np

from .voting import ACTIONS, MISMATCH, OPERATIONAL, PASS, SAFE_OFF, TIMEOUT, VERDICTS

_PASS, _MISMATCH, _TIMEOUT = VERDICTS.index(PASS), VERDICTS.index(MISMATCH), VERDICTS.index(TIMEOUT)

# Rounds are written in pieces of at most this many rounds, which caps the
# trace text held at once.
WRITE_ROUNDS = 128


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
    """A timed-out rendezvous; the ids are `ids` text."""
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"rendezvous",{fr},"outcome":"timeout",'
            f'"present_ids":{present_ids},"missing_ids":{missing_ids}}}\n')


def divergence(t, seq, fr, replica_a, replica_b, event_index):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"bus_divergence",{fr},"replica_a":{replica_a},'
            f'"replica_b":{replica_b},"event_index":{event_index},"reason":"payload digest mismatch"}}\n')


def safety_fields(state, action, consecutive_faults):
    return f',"state":"{state}","action":"{action}","consecutive_faults":{consecutive_faults}'


def verdict_and_safety(t, seq, fr, variant, fields, safety_tail):
    """The verdict at seq and the safety action at seq + 1."""
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"verdict",{fr},"variant":"{variant}"{fields}}}\n'
            f'{{"t_ns":{t},"seq":{seq + 1},"kind":"safety_action",{fr}{safety_tail}}}\n')


def ptp(t, seq, replica_id, offset_ns, path_delay_ns):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"ptp","replica_id":{replica_id},'
            f'"offset_ns":{offset_ns},"path_delay_ns":{path_delay_ns}}}\n')


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


def in_order(times, seqs, lines) -> str:
    """Text of `lines` in (t_ns, seq) order. `times` and `seqs` hold the
    records' keys, as int64 arrays whose concatenation lines up with
    `lines`."""
    order = np.lexsort((np.concatenate(seqs), np.concatenate(times)))
    return "".join(map(lines.__getitem__, order.tolist()))


def _ids_of(flags, replica_ids) -> list:
    """Per row of the bool (rounds, replicas) `flags`, the `ids` text of
    the replica ids it flags, formatted once per distinct row."""
    codes = (flags << np.arange(len(replica_ids))).sum(axis=1).tolist()
    text = {code: ids([r for b, r in enumerate(replica_ids) if code >> b & 1]) for code in set(codes)}
    return list(map(text.__getitem__, codes))


def rounds(write, first_seq, c, replica_ids, cycles, required) -> int:
    """Write the records of a chunk of rounds, whose first takes seq
    `first_seq`, with `write`; return the seq after its last round.

    `c` holds the runner's columns, with one row per round and, in the
    two-axis ones, one column per healthy replica in `replica_ids`:
    frame_ids, reps (the round's repetition), clean and classes (the clean
    output's digest and classification); starts, ends (the release and
    record times); feed, comp, emit (each delivery and completion time
    after the release, whether emitted); applied (a fault fired); present,
    complete, skew (the rendezvous); verdict (an index in `VERDICTS`);
    labels, best, voted, agreed (the agreement groups, the winning group,
    whether the round was grouped, the agreed digest); compared, diverged,
    other, index (the bus compare: whether the round's buses were
    compared, and whether they diverged, with which column, at which
    event); action, counts, safe (the safety switch after the round, safe
    being counts >= the threshold). When no value fault can fire, changed,
    digests and outputs are None; else they flag and hold each output that
    a value fault changed. `experiment.ExperimentRunner._run_chunk` makes
    them and `experiment.tally` counts them. `cycles` is an inference's
    compute cycles and `required` the policy's required agreement.

    Each round takes seqs in this order: the input release; one delivery
    per healthy replica in replica order; one completion per delivery, in
    (time, seq) order of the deliveries (a dropped output takes its seq but
    writes no record); then, at the record time, the rendezvous, any bus
    divergence, the verdict and the safety action. With no healthy replica
    a round takes 3 seqs.

    The seqs and the order of the completion seqs are laid out once per
    chunk. Each `WRITE_ROUNDS` rounds then take a slice of every column
    (None stays None), which `_piece` writes.
    """
    n, k = len(c["verdict"]), len(replica_ids)
    steps = 4 + 2 * k + c["diverged"] if k else np.full(n, 3)
    nexts = first_seq + np.cumsum(steps)  # each round's last seq + 1
    seqs = nexts - steps
    # a completion's seq follows the (time, replica) order of the
    # deliveries, which is replica order when all come at the release
    completion_seqs = seqs[:, None] + np.arange(1 + k, 1 + 2 * k)
    if k and c["feed"].any():
        order = np.argsort(c["feed"], axis=1, kind="stable")
        np.put_along_axis(completion_seqs, order, completion_seqs.copy(), axis=1)
    c = {**c, "seqs": seqs, "nexts": nexts, "completion_seqs": completion_seqs}
    for a in range(0, n, WRITE_ROUNDS):
        s = slice(a, a + WRITE_ROUNDS)
        write(_piece({key: v if v is None else v[s] for key, v in c.items()}, replica_ids, cycles, required))
    return int(nexts[-1])


def _piece(c, replica_ids, cycles, required) -> str:
    """The text of the rounds of `c`, a slice of `rounds`' columns, in
    (t_ns, seq) order."""
    fids, starts, ends, seqs, verdict = c["frame_ids"], c["starts"], c["ends"], c["seqs"], c["verdict"]
    n, k = len(fids), len(replica_ids)
    frames = list(map(frame, fids.tolist(), c["reps"].tolist()))
    # the clean output's tails, formatted once per frame
    new = np.ones(n, dtype=bool)
    new[1:] = fids[1:] != fids[:-1]
    at, of = np.flatnonzero(new), (np.cumsum(new) - 1).tolist()
    digests = c["clean"][at].tolist()
    completions = list(map(completion_fields, [cycles] * len(digests), digests, c["classes"][at].tolist()))
    agreements = list(map(agreed, [ids(replica_ids)] * len(digests), digests))
    completions, fields = list(map(completions.__getitem__, of)), list(map(agreements.__getitem__, of))
    times, keys, lines = [], [], []

    def add(mask, t, seq, record, *cols):
        """Format a kind of record for the rounds that the bool `mask`
        flags, or for every round if it is None, each from its time, seq,
        frame fields and `cols`: lists or arrays with one entry per round."""
        fr = frames
        if mask is not None and len(at := np.flatnonzero(mask)) < n:
            if not len(at):
                return
            j = at.tolist()
            fr = list(map(frames.__getitem__, j))
            t, seq = t[at], seq[at]
            cols = [list(map(f.__getitem__, j)) if isinstance(f, list) else f[at] for f in cols]
        times.append(t)
        keys.append(seq)
        lines.extend(map(record, t.tolist(), seq.tolist(), fr,
                         *(f if isinstance(f, list) else f.tolist() for f in cols)))

    add(None, starts, seqs, release)
    if k:
        feed, comp, changed = c["feed"], c["comp"], c["changed"]
        for i, rid in enumerate(replica_ids):
            add(None, starts + feed[:, i], seqs + (1 + i), delivery, [rid] * n, feed[:, i])
            tails = completions
            if changed is not None and len(at := np.flatnonzero(changed[:, i])):
                tails = completions.copy()
                for j, text in zip(at.tolist(), map(completion_fields, [cycles] * len(at),
                                                    c["digests"][at, i].tolist(),
                                                    c["outputs"][at, i].argmax(axis=1).tolist())):
                    tails[j] = text
            add(c["emit"][:, i], starts + comp[:, i], c["completion_seqs"][:, i], completion, [rid] * n,
                comp[:, i], tails)

    # the records that end each round, at its record time: the rendezvous,
    # any bus divergence, then the verdict and the safety action at the
    # round's last two seqs
    at = np.flatnonzero(c["voted"] & (verdict == _PASS))
    if len(at):
        agreeing = _ids_of(c["labels"][at] == c["best"][at, None], replica_ids)
        for j, text in zip(at.tolist(), map(agreed, agreeing, c["agreed"][at].tolist())):
            fields[j] = text
    if k:
        rendezvous_seqs = seqs + (1 + 2 * k)
        add(c["complete"], ends, rendezvous_seqs, complete, c["skew"])
        if not c["complete"].all():
            present = c["present"]
            present, gone = _ids_of(present, replica_ids), _ids_of(~present, replica_ids)
            add(~c["complete"], ends, rendezvous_seqs, timeout, present, gone)
        if c["diverged"].any():
            rids = np.array(replica_ids)
            add(c["diverged"], ends, rendezvous_seqs + 1, divergence, rids[c["emit"].argmax(axis=1)],
                rids[c["other"]], c["index"])
    # the text of each non-pass verdict
    degraded = reason(f"{k} output(s) cannot reach {required}-way agreement" if k else "no healthy replicas")
    for j in np.flatnonzero(verdict != _PASS).tolist():
        v = verdict[j]
        if v == _MISMATCH:
            labels = c["labels"][j]
            fields[j] = groups([[r for r, g in zip(replica_ids, labels.tolist()) if g == group]
                                for group in range(labels.max() + 1)])
        else:
            fields[j] = missing(gone[j]) if v == _TIMEOUT else degraded

    action, counts, safe = c["action"], c["counts"], c["safe"]
    if (action == action[0]).all() and (counts == counts[0]).all():
        tails = [safety_fields(SAFE_OFF if safe[0] else OPERATIONAL, ACTIONS[action[0]], int(counts[0]))] * n
    else:
        states = [SAFE_OFF if off else OPERATIONAL for off in safe.tolist()]
        tails = list(map(safety_fields, states, map(ACTIONS.__getitem__, action.tolist()), counts.tolist()))
    add(None, ends, c["nexts"] - 2, verdict_and_safety, list(map(VERDICTS.__getitem__, verdict.tolist())),
        fields, tails)
    return in_order(times, keys, lines)
