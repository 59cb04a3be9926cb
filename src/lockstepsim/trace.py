"""trace.jsonl: a run's records, one JSON object per line (schema_version 2).

Each line is `json.dumps(record, separators=(",", ":"))` and a newline. A
record starts with "t_ns" (simulated time), "seq" (its line index, from 0)
and "kind", one of four:

header: line 1, at t_ns 0: schema_version, package_version, the seed,
config_digest (`rng.fnv1a64` of the expanded config's compact JSON),
replica_ids (the healthy replicas, in the order of every per-replica list
below), compute_cycles of one inference and the required_agreement.

ptp: one per replica when PTP is on, at t_ns 0: replica_id, offset_ns and
path_delay_ns.

completion: one per emitted output, at its completion time: replica_id and
turnaround_ns (after the release); then, only where a value fault changed
the output, its digest and classification.

verdict: one per round, at its record time: frame_id, repetition,
release_ns, delivery_ns (each delivery's offset after the release), the
clean output's digest and classification; the rendezvous, "complete" with
skew_ns or "timeout" with present_ids and missing_ids, unless no replica
is healthy; bus_divergence {replica_a, replica_b, event_index} if the
buses diverged; the variant, with agreeing_ids and agreed_digest, groups
or reason (a timeout's missing ids are the rendezvous's); and the safety
switch after the round: state, action, consecutive_faults.

The seq rule: a round's completions take the next seqs in (time, replica
id) order and its verdict the one after them. Rounds never overlap and a
verdict's time is at or after its round's completions, so (t_ns, seq)
strictly increases.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from . import __version__
from .rng import fnv1a64
from .voting import ACTIONS, MISMATCH, OPERATIONAL, PASS, SAFE_OFF, TIMEOUT, VERDICTS

_PASS, _MISMATCH, _TIMEOUT = VERDICTS.index(PASS), VERDICTS.index(MISMATCH), VERDICTS.index(TIMEOUT)

# Rounds are written in pieces of at most this many rounds, which caps the
# trace text held at once.
WRITE_ROUNDS = 128


def header(config, replica_ids, compute_cycles, required_agreement) -> str:
    digest = fnv1a64(json.dumps(config.to_json_dict(), separators=(",", ":")).encode())
    return (f'{{"t_ns":0,"seq":0,"kind":"header","schema_version":2,"package_version":{json.dumps(__version__)},'
            f'"seed":{config.seed},"config_digest":{digest},"replica_ids":{ids(replica_ids)},'
            f'"compute_cycles":{compute_cycles},"required_agreement":{required_agreement}}}\n')


def ptp(t, seq, replica_id, offset_ns, path_delay_ns):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"ptp","replica_id":{replica_id},'
            f'"offset_ns":{offset_ns},"path_delay_ns":{path_delay_ns}}}\n')


def completion(t, seq, replica_id, turnaround_ns, changed=""):
    """`changed` is "" or a changed output's `output` text."""
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"completion","replica_id":{replica_id},'
            f'"turnaround_ns":{turnaround_ns}{changed}}}\n')


def output(digest, classification):
    return f',"digest":{digest},"classification":{classification}'


def verdict(t, seq, frame_id, repetition, release_ns, delivery_ns, clean, outcome, variant, fields, safety):
    """A round's verdict record. `delivery_ns` is `ids` text, `clean` the
    clean output's `output` text; `outcome` (the rendezvous and any bus
    divergence), `fields` (the variant's) and `safety` are texts that
    begin with a comma or are empty."""
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"verdict","frame_id":{frame_id},"repetition":{repetition},'
            f'"release_ns":{release_ns},"delivery_ns":{delivery_ns}{clean}{outcome},"variant":"{variant}"'
            f'{fields}{safety}}}\n')


def completed(skew_ns):
    return f',"rendezvous":"complete","skew_ns":{skew_ns}'


def timed_out(present_ids, missing_ids):
    """A timed-out rendezvous; the ids are `ids` text."""
    return f',"rendezvous":"timeout","present_ids":{present_ids},"missing_ids":{missing_ids}'


def diverged(replica_a, replica_b, event_index):
    return f',"bus_divergence":{{"replica_a":{replica_a},"replica_b":{replica_b},"event_index":{event_index}}}'


def safety_fields(state, action, consecutive_faults):
    return f',"state":"{state}","action":"{action}","consecutive_faults":{consecutive_faults}'


def ids(values) -> str:
    """JSON text of a list of ints, as json.dumps writes it compactly."""
    return "[" + ",".join(map(str, values)) + "]"


def agreed(agreeing_ids, agreed_digest):
    """A pass verdict's fields; `agreeing_ids` is `ids` text."""
    return f',"agreeing_ids":{agreeing_ids},"agreed_digest":{agreed_digest}'


def groups(members) -> str:
    """A mismatch verdict's fields: the replica ids of each group."""
    return ',"groups":[' + ",".join(map(ids, members)) + "]"


def reason(text):
    """A degraded verdict's fields."""
    return f',"reason":{json.dumps(text)}'


def _ids_of(flags, replica_ids) -> list:
    """Per row of the bool (rounds, replicas) `flags`, the `ids` text of
    the replica ids it flags, formatted once per distinct row."""
    codes = (flags << np.arange(len(replica_ids))).sum(axis=1).tolist()
    text = {code: ids([r for b, r in enumerate(replica_ids) if code >> b & 1]) for code in set(codes)}
    return list(map(text.__getitem__, codes))


def rounds(write, first_seq, c, replica_ids, required) -> int:
    """Write the records of a chunk of rounds, whose first takes seq
    `first_seq`, with `write`; return the seq after its last round.
    `required` is the policy's required agreement.

    `c` holds the columns of `experiment.ExperimentRunner._run_chunk`, one
    row per round and, in the two-axis ones, one column per healthy replica
    in `replica_ids`: frame_ids, reps, clean and classes (the clean output's
    digest and classification); starts and ends (the release and record
    times); feed, comp and emit (each delivery and completion time after
    the release, whether emitted); present, complete and skew (the
    rendezvous); verdict (an index in `VERDICTS`); labels, best, voted and
    agreed (the agreement groups, the winning group, whether the round was
    grouped, the agreed digest); diverged, other and index (the bus
    divergence, with which column, at which event); action, counts and safe
    (the safety switch after the round). digests and outputs hold each
    output, or are None when no value fault can fire.

    Each `WRITE_ROUNDS` rounds, a piece, take a slice of every column (None
    stays None), which `_piece` writes, so every Python str and list lives
    for one piece only.
    """
    verdict_seqs = first_seq - 1 + np.cumsum(c["emit"].sum(axis=1) + 1)
    c = {**c, "verdict_seqs": verdict_seqs}
    for a in range(0, len(verdict_seqs), WRITE_ROUNDS):
        s = slice(a, a + WRITE_ROUNDS)
        write(_piece({key: v if v is None else v[s] for key, v in c.items()}, replica_ids, required))
    return int(verdict_seqs[-1]) + 1


def _piece(c, replica_ids, required) -> str:
    """The text of the rounds of `c`, a slice of `rounds`' columns, in seq
    order."""
    starts, comp, emit, codes, verdict_seqs = c["starts"], c["comp"], c["emit"], c["verdict"], c["verdict_seqs"]
    n, k = len(codes), len(replica_ids)

    # each emitted output's seq: its round's next, in (time, replica) order
    order = np.argsort(comp, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.cumsum(np.take_along_axis(emit, order, axis=1), axis=1), axis=1)
    places = (verdict_seqs - emit.sum(axis=1) - 1)[:, None] + ranks
    seqs, lines = [], []
    for i, rid in enumerate(replica_ids):
        at = np.flatnonzero(emit[:, i])
        changed = [""] * len(at)
        if c["digests"] is not None:
            for j in np.flatnonzero(c["digests"][at, i] != c["clean"][at]).tolist():
                changed[j] = output(int(c["digests"][at[j], i]), int(c["outputs"][at[j], i].argmax()))
        seqs.append(places[at, i])
        lines.extend(map(completion, (starts[at] + comp[at, i]).tolist(), places[at, i].tolist(), repeat(rid),
                         comp[at, i].tolist(), changed))

    # the rendezvous and any bus divergence
    outcomes = [""] * n
    if k:
        present, gone = _ids_of(c["present"], replica_ids), _ids_of(~c["present"], replica_ids)
        outcomes = [completed(skew) if done else timed_out(p, g)
                    for done, skew, p, g in zip(c["complete"].tolist(), c["skew"].tolist(), present, gone)]
    for j in np.flatnonzero(c["diverged"]).tolist():
        outcomes[j] += diverged(replica_ids[emit[j].argmax()], replica_ids[c["other"][j]], c["index"][j])

    # the variant's fields: a pass agrees on the clean output unless its
    # round was grouped; each clean output's texts are formatted once
    clean = c["clean"].tolist()
    cleans = {d: output(d, cls) for d, cls in dict(zip(clean, c["classes"].tolist())).items()}
    everyone = ids(replica_ids)
    fields = list(map({d: agreed(everyone, d) for d in cleans}.__getitem__, clean))
    at = np.flatnonzero(c["voted"] & (codes == _PASS))
    for j, text in zip(at.tolist(), map(agreed, _ids_of(c["labels"][at] == c["best"][at, None], replica_ids),
                                        c["agreed"][at].tolist())):
        fields[j] = text
    degraded = reason(f"{k} output(s) cannot reach {required}-way agreement" if k else "no healthy replicas")
    for j in np.flatnonzero(codes != _PASS).tolist():
        if codes[j] == _MISMATCH:
            labels = c["labels"][j].tolist()
            fields[j] = groups([[r for r, g in zip(replica_ids, labels) if g == group]
                                for group in range(max(labels) + 1)])
        else:
            fields[j] = "" if codes[j] == _TIMEOUT else degraded

    action, counts, safe = c["action"], c["counts"], c["safe"]
    if (action == action[0]).all() and (counts == counts[0]).all():
        tails = repeat(safety_fields(SAFE_OFF if safe[0] else OPERATIONAL, ACTIONS[action[0]], int(counts[0])))
    else:
        states = [SAFE_OFF if off else OPERATIONAL for off in safe.tolist()]
        tails = map(safety_fields, states, map(ACTIONS.__getitem__, action.tolist()), counts.tolist())
    feed = c["feed"]
    deliveries = (map(("[" + ",".join(["{}"] * k) + "]").format, *feed.T.tolist()) if feed.any()
                  else repeat(ids([0] * k)))
    seqs.append(verdict_seqs)
    lines.extend(map(verdict, c["ends"].tolist(), verdict_seqs.tolist(), c["frame_ids"].tolist(),
                     c["reps"].tolist(), starts.tolist(), deliveries, map(cleans.__getitem__, clean), outcomes,
                     map(VERDICTS.__getitem__, codes.tolist()), fields, tails))
    # put each line at its seq
    at = np.concatenate(seqs) - (int(verdict_seqs[0]) - int(emit[0].sum()))
    order = np.empty_like(at)
    order[at] = np.arange(len(at))
    return "".join(map(lines.__getitem__, order.tolist()))
