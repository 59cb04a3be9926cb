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
lays out as NumPy arrays the seqs, the record times and the rounds that
each kind of record or text is for. It writes the text `WRITE_ROUNDS`
rounds at a time (`_piece`): each piece builds its frame and text fields,
turns its slices of the arrays into lists, formats the records and orders
the text by (t_ns, seq) (`in_order`). A text shared by many rounds is
formatted once per piece: the clean output's tails once per frame, the
`_ids_of` texts once per set of ids, the safety tails once when they are
all equal; a changed output and a verdict other than pass take their
own. So every Python str and list lives for one piece only.
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

    The seqs, the record times and the rounds of each kind are laid out
    once per chunk, as arrays; `_piece` writes each `WRITE_ROUNDS` rounds.
    """
    fids, verdict, emit, changed = c["frame_ids"], c["verdict"], c["emit"], c["changed"]
    n, k = len(fids), len(replica_ids)
    steps = 4 + 2 * k + c["diverged"] if k else np.full(n, 3)
    nexts = first_seq + np.cumsum(steps)  # each round's last seq + 1
    seqs = nexts - steps
    # a completion's seq follows the (time, replica) order of the
    # deliveries, which is replica order when all come at the release
    completion_seqs = seqs[:, None] + np.arange(1 + k, 1 + 2 * k)
    if k and c["feed"].any():
        order = np.argsort(c["feed"], axis=1, kind="stable")
        np.put_along_axis(completion_seqs, order, completion_seqs.copy(), axis=1)
    new = np.ones(n, dtype=bool)
    new[1:] = fids[1:] != fids[:-1]
    action, counts = c["action"], c["counts"]
    # frame_of numbers each round's frame, frame_rows holds each frame's
    # first round, and uniform says whether every safety tail is the same
    c = {**c, "seqs": seqs, "nexts": nexts, "completion_seqs": completion_seqs,
         "frame_of": np.cumsum(new) - 1, "frame_rows": np.flatnonzero(new),
         "uniform": (action == action[0]).all() and (counts == counts[0]).all()}
    # the rounds that each kind of record or text is for, as ascending
    # indices; None when that is every round
    masks = {"complete": c["complete"], "timeout": ~c["complete"], "diverged": c["diverged"],
             "voted": c["voted"] & (verdict == _PASS), "other": verdict != _PASS}
    masks.update({("emit", i): emit[:, i] for i in range(k)})
    if changed is not None:
        masks.update({("changed", i): changed[:, i] for i in range(k)})
    rows = {kind: None if mask.all() else np.flatnonzero(mask) for kind, mask in masks.items()}
    for a in range(0, n, WRITE_ROUNDS):
        write(_piece(c, rows, a, min(a + WRITE_ROUNDS, n), replica_ids, cycles, required))
    return int(nexts[-1])


def _piece(c, rows, a, b, replica_ids, cycles, required) -> str:
    """The text of rounds a .. b-1 of `rounds`' columns `c`, in (t_ns, seq)
    order; `rows` holds the rounds of each kind."""
    s = slice(a, b)
    starts, ends, seqs, verdict = c["starts"][s], c["ends"][s], c["seqs"][s], c["verdict"][s]
    n, k = b - a, len(replica_ids)
    every = np.arange(n)

    def within(kind):
        """The rounds of the piece that `rows[kind]` holds, as indices into
        the piece."""
        at = rows[kind]
        if at is None:
            return every
        i, j = at.searchsorted((a, b)).tolist()
        return at[i:j] - a

    frames = list(map(frame, c["frame_ids"][s].tolist(), c["reps"][s].tolist()))
    # the clean output's tails, formatted once per frame
    of = c["frame_of"][s]
    lo = int(of[0])
    at = c["frame_rows"][lo:int(of[-1]) + 1]
    digests, of = c["clean"][at].tolist(), (of - lo).tolist()
    completions = list(map(completion_fields, [cycles] * len(digests), digests, c["classes"][at].tolist()))
    agreements = list(map(agreed, [ids(replica_ids)] * len(digests), digests))
    completions, fields = list(map(completions.__getitem__, of)), list(map(agreements.__getitem__, of))
    times, keys, lines = [], [], []

    def add(at, t, seq, record, *cols):
        """Format a kind of record for the rounds `at` of the piece, each
        from its time, seq, frame fields and `cols`: lists or arrays with
        one entry per round of the piece."""
        fr = frames
        if len(at) < n:
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

    add(every, starts, seqs, release)
    if k:
        feed, comp, completion_seqs = c["feed"][s], c["comp"][s], c["completion_seqs"][s]
        for i, rid in enumerate(replica_ids):
            add(every, starts + feed[:, i], seqs + (1 + i), delivery, [rid] * n, feed[:, i])
            tails = completions
            if ("changed", i) in rows and len(at := within(("changed", i))):
                tails = completions.copy()
                g = at + a
                for j, text in zip(at.tolist(), map(completion_fields, [cycles] * len(at),
                                                    c["digests"][g, i].tolist(),
                                                    c["outputs"][g, i].argmax(axis=1).tolist())):
                    tails[j] = text
            add(within(("emit", i)), starts + comp[:, i], completion_seqs[:, i], completion, [rid] * n, comp[:, i],
                tails)

    # the records that end each round, at its record time: the rendezvous,
    # any bus divergence, then the verdict and the safety action at the
    # round's last two seqs
    at = within("voted")
    if len(at):
        g = at + a
        agreeing = _ids_of(c["labels"][g] == c["best"][g, None], replica_ids)
        for j, text in zip(at.tolist(), map(agreed, agreeing, c["agreed"][g].tolist())):
            fields[j] = text
    if k:
        rendezvous_seqs = seqs + (1 + 2 * k)
        add(within("complete"), ends, rendezvous_seqs, complete, c["skew"][s])
        at = within("timeout")
        if len(at):
            present = c["present"][s]
            present, gone = _ids_of(present, replica_ids), _ids_of(~present, replica_ids)
            add(at, ends, rendezvous_seqs, timeout, present, gone)
        at = within("diverged")
        if len(at):
            rids = np.array(replica_ids)
            add(at, ends, rendezvous_seqs + 1, divergence, rids[c["emit"][s].argmax(axis=1)], rids[c["other"][s]],
                c["index"][s])
    # the text of each non-pass verdict
    degraded = reason(f"{k} output(s) cannot reach {required}-way agreement" if k else "no healthy replicas")
    for j in within("other").tolist():
        v = verdict[j]
        if v == _MISMATCH:
            labels = c["labels"][a + j]
            fields[j] = groups([[r for r, g in zip(replica_ids, labels.tolist()) if g == group]
                                for group in range(labels.max() + 1)])
        else:
            fields[j] = missing(gone[j]) if v == _TIMEOUT else degraded

    action, counts, safe = c["action"][s], c["counts"][s], c["safe"][s]
    if c["uniform"]:
        tails = [safety_fields(SAFE_OFF if safe[0] else OPERATIONAL, ACTIONS[action[0]], int(counts[0]))] * n
    else:
        states = [SAFE_OFF if off else OPERATIONAL for off in safe.tolist()]
        tails = list(map(safety_fields, states, map(ACTIONS.__getitem__, action.tolist()), counts.tolist()))
    add(every, ends, c["nexts"][s] - 2, verdict_and_safety, list(map(VERDICTS.__getitem__, verdict.tolist())),
        fields, tails)
    return in_order(times, keys, lines)
