"""trace.jsonl: a run's records, one JSON object per line (schema_version 3).

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
buses diverged; the variant, with its fields; and the safety switch after
the round: state, action, consecutive_faults. A pass names agreeing_ids
and agreed_digest only where they say more than the line and the header:
where a healthy replica is outside the agreeing group, or the agreed
digest is not the clean one. So a pass without them agreed on the clean
output in every header replica_id. A mismatch names its groups and a
degraded verdict its reason; a timeout's missing ids are the rendezvous's.

The seq rule: a round's completions take the next seqs in (time, replica
id) order and its verdict the one after them. Rounds never overlap and a
verdict's time is at or after its round's completions, so (t_ns, seq)
strictly increases. The writer lays a round out in slots, one per healthy
replica: a stable sort of the completion times, with an unemitted output's
time taken as the int64 maximum, so a tie keeps replica id order and the
unemitted come last. Slot j of a round with e outputs takes its verdict's
seq less e, plus j; an unemitted slot writes no line.

The writer fills `%` templates, one per emitted count e and rendezvous
outcome: COMPLETION e times, then `verdict_template`. A piece of
`WRITE_ROUNDS` rounds makes one value tuple per round, patches only its
sparse rows, formats each round with one `%` and writes the piece in one call.
"""

from __future__ import annotations

import json
from itertools import chain, compress, pairwise, repeat

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
    return (f'{{"t_ns":0,"seq":0,"kind":"header","schema_version":3,"package_version":{json.dumps(__version__)},'
            f'"seed":{config.seed},"config_digest":{digest},"replica_ids":{ids(replica_ids)},'
            f'"compute_cycles":{compute_cycles},"required_agreement":{required_agreement}}}\n')


def ptp(t, seq, replica_id, offset_ns, path_delay_ns):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"ptp","replica_id":{replica_id},'
            f'"offset_ns":{offset_ns},"path_delay_ns":{path_delay_ns}}}\n')


# A completion line's values: t_ns, seq, replica_id, turnaround_ns and "" or a changed `output` text.
COMPLETION = '{"t_ns":%d,"seq":%d,"kind":"completion","replica_id":%d,"turnaround_ns":%d%s}\n'
# A complete rendezvous in a verdict template; its value is skew_ns.
COMPLETE = ',"rendezvous":"complete","skew_ns":%d'


def verdict_template(deliveries, rendezvous):
    """The `%` template of a verdict line; `deliveries` is `ids` text of ints or
    "%d"s, `rendezvous` COMPLETE or "%s". Its values: t_ns, seq, frame_id,
    repetition, release_ns, any deliveries, the clean `output` text, the
    rendezvous's, the rest (any bus divergence, the variant, its fields), the safety switch's."""
    return ('{"t_ns":%d,"seq":%d,"kind":"verdict","frame_id":%d,"repetition":%d,"release_ns":%d,'
            f'"delivery_ns":{deliveries}%s{rendezvous}%s%s}}\n')


def output(digest, classification):
    return f',"digest":{digest},"classification":{classification}'


def timed_out(present_ids, missing_ids):
    """A timed-out rendezvous; the ids are `ids` text."""
    return f',"rendezvous":"timeout","present_ids":{present_ids},"missing_ids":{missing_ids}'


def diverged(replica_a, replica_b, event_index):
    return f',"bus_divergence":{{"replica_a":{replica_a},"replica_b":{replica_b},"event_index":{event_index}}}'


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


def _pieces(n, rows, *columns):
    """Per piece of a chunk of n rounds, the lists of the sorted `rows` in
    it and of the `columns` aligned with them."""
    if not len(rows):
        return repeat([[]] * (1 + len(columns)))
    cuts = [0, *np.searchsorted(rows, range(WRITE_ROUNDS, n, WRITE_ROUNDS)).tolist(), len(rows)]
    return ([x[lo:hi].tolist() for x in (rows, *columns)] for lo, hi in zip(cuts, cuts[1:]))


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
    rendezvous); verdict (an index in `VERDICTS`); labels, best and agreed
    (the agreement groups, the winning group, the agreed digest); diverged,
    other and index (the bus divergence, with which column, at which
    event); action, counts and safe (the safety switch after the round;
    safe changes only where one of the others does). digests and outputs
    hold each output, or are None when no value fault can fire. A clean
    digest has one classification.

    Arrays and templates are built once per chunk. Each `WRITE_ROUNDS`
    rounds, a piece, turns its slice into lists, one value tuple per round,
    and joins the rounds' `%` texts, so every Python str and list lives for
    one piece only. (One `%` over a piece grows its buffer by reallocation,
    which fragments the heap; `str.join` sizes the text once.)
    """
    starts, comp, emit, codes = c["starts"], c["comp"], c["emit"], c["verdict"]
    action, counts, complete, present = c["action"], c["counts"], c["complete"], c["present"]
    n, k = emit.shape
    emitted = emit.sum(axis=1)
    verdict_seqs = first_seq - 1 + np.cumsum(emitted + 1)
    replicas = np.array(replica_ids, dtype=np.int64)
    slot = np.argsort(np.where(emit, comp, np.iinfo(np.int64).max), axis=1, kind="stable")
    turnarounds = np.take_along_axis(comp, slot, axis=1)
    slots = (starts[:, None] + turnarounds, (verdict_seqs - emitted)[:, None] + np.arange(k), replicas[slot],
             turnarounds)
    # the sparse cases: changed outputs, rounds of another shape (unemitted
    # outputs or a timed-out rendezvous), bus divergences, passes that name
    # their agreement, the other verdicts and the safety switch's changes
    changed = (np.zeros(0, dtype=np.int64),)
    odd, split = np.flatnonzero((emitted < k) | (~complete & bool(k))), np.flatnonzero(c["diverged"])
    if c["digests"] is not None:
        rows, at = np.nonzero(np.take_along_axis(emit & (c["digests"] != c["clean"][:, None]), slot, axis=1))
        changed = (rows, at, c["digests"][rows, slot[rows, at]], c["outputs"][rows, slot[rows, at]].argmax(axis=1))
    divergences = (split, replicas[emit[split].argmax(axis=1)], replicas[c["other"][split]],
                   c["index"][split]) if split.size else (split,)
    outside = c["labels"] != c["best"][:, None]
    named = np.flatnonzero((codes == _PASS) & (outside.any(axis=1) | (c["agreed"] != c["clean"])))
    failed = np.flatnonzero(codes != _PASS)
    steps = np.flatnonzero((action[1:] != action[:-1]) | (counts[1:] != counts[:-1])) + 1
    sparse = zip(_pieces(n, *changed), _pieces(n, odd, emitted[odd], complete[odd], present[odd], ~present[odd]),
                 _pieces(n, *divergences), _pieces(n, named, ~outside[named], c["agreed"][named]),
                 _pieces(n, failed, codes[failed], c["labels"][failed]), _pieces(n, steps))
    del slot, outside

    degraded = reason(f"{k} output(s) cannot reach {required}-way agreement" if k else "no healthy replicas")
    fed = c["feed"].any()
    delivery = ids(["%d"] * k if fed else [0] * k)
    shapes = {(e, done): COMPLETION * e + verdict_template(delivery, COMPLETE if done else "%s")
              for e in range(k + 1) for done in (False, True)}

    def tail(j):
        state = SAFE_OFF if c["safe"][j] else OPERATIONAL
        return f',"state":"{state}","action":"{ACTIONS[action[j]]}","consecutive_faults":{counts[j]}'

    for a, (news, others, splits, agreements, fails, changes) in zip(range(0, n, WRITE_ROUNDS), sparse):
        s, m = slice(a, a + WRITE_ROUNDS), min(WRITE_ROUNDS, n - a)
        texts = [[""] * m for _ in range(k)]
        for j, i, d, cls in zip(*news):
            texts[i][j - a] = output(d, cls)
        # any bus divergence, then the variant and its fields
        rest = [',"variant":"pass"'] * m
        for j, agreeing, d in zip(*agreements):
            rest[j - a] += agreed(ids(compress(replica_ids, agreeing)), d)
        for j, code, labels in zip(*fails):
            rest[j - a] = f',"variant":"{VERDICTS[code]}"' + (
                groups([[r for r, g in zip(replica_ids, labels) if g == group] for group in range(max(labels) + 1)])
                if code == _MISMATCH else "" if code == _TIMEOUT else degraded)
        for j, *pair in zip(*splits):
            rest[j - a] = diverged(*pair) + rest[j - a]
        # each clean output's text is formatted once
        clean = c["clean"][s].tolist()
        cleans = {d: output(d, cls) for d, cls in dict(zip(clean, c["classes"][s].tolist())).items()}
        # the safety switch: one tail per run of rounds between its changes
        edges = [a, *(j for j in changes[0] if j != a), a + m]
        tails = chain.from_iterable(repeat(tail(x), y - x) for x, y in pairwise(edges))
        values = list(zip(*chain.from_iterable(zip(*(x[s].T.tolist() for x in slots), texts)),
                          c["ends"][s].tolist(), verdict_seqs[s].tolist(), c["frame_ids"][s].tolist(),
                          c["reps"][s].tolist(), starts[s].tolist(), *(c["feed"][s].T.tolist() if fed else ()),
                          map(cleans.__getitem__, clean), c["skew"][s].tolist() if k else repeat(""), rest, tails))
        templates = [shapes[k, bool(k)]] * m
        # an odd round keeps only its emitted slots' 5 values each; a timeout's rendezvous, 3rd from last, is text
        for j, e, done, here, gone in zip(*others):
            row = values[j - a]
            rendezvous = row[-3] if done else timed_out(ids(compress(replica_ids, here)),
                                                        ids(compress(replica_ids, gone)))
            values[j - a], templates[j - a] = (*row[:5 * e], *row[5 * k:-3], rendezvous, *row[-2:]), shapes[e, done]
        write("".join(map(str.__mod__, templates, values)))
    return int(verdict_seqs[-1]) + 1
