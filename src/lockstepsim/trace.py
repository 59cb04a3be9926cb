"""trace.jsonl: a run's records, one JSON object per line (schema_version 4).

Each line is `json.dumps(record, separators=(",", ":"))` and a newline. A
record starts with "t_ns" (simulated time), "seq" (its line index, from 0)
and "kind", one of four:

header: line 1, at t_ns 0: schema_version, package_version, the seed,
config_digest (`rng.fnv1a64` of the expanded config's compact JSON),
replica_ids (the healthy replicas, in the order of every per-replica list
below), compute_cycles of one inference, required_agreement,
repetitions_per_frame, debounce_threshold and feed_jitter (false under
tight coupling, or if each healthy replica's feed model is `JitterModel()`).

ptp: one per replica when PTP is on, at t_ns 0: replica_id, offset_ns and
path_delay_ns.

completion: one per emitted output, at its completion time: replica_id and
turnaround_ns (after the release); then, only where a value fault changed
the output, its digest and classification.

verdict: one per round, at its record time, with no field that the header
and the lines before it give. Round i (from 0) is repetition i %
repetitions_per_frame of frame i // repetitions_per_frame, released at the
previous verdict's t_ns (0 for the first). Its fields: delivery_ns (each
delivery's offset after the release) if the header's feed_jitter, else each
is 0; the rendezvous, "complete" with skew_ns or "timeout" with present_ids
and missing_ids, unless no replica is healthy; the clean output's digest
and classification, on a frame's first round only; bus_divergence
{replica_a, replica_b, event_index} if the buses diverged; the variant,
with its fields; and, where the consecutive fault count is not 0, the
safety switch after the round: state ("safe_off" once the count reaches
debounce_threshold), action, consecutive_faults. At 0 it is at rest:
"operational", "deliver_output", 0. A pass names agreeing_ids and
agreed_digest only where a healthy replica is outside the agreeing group,
or the agreed digest is not the clean one. A mismatch names its groups and
a degraded verdict its reason; a timeout's missing ids are the rendezvous's.

The seq rule: a round's completions take the next seqs in (time, replica
id) order and its verdict the one after them. Rounds never overlap and a
verdict's time is at or after its round's completions, so (t_ns, seq)
strictly increases. The writer lays a round out in slots, one per healthy
replica: a stable sort of the completion times, with an unemitted output's
time taken as the int64 maximum, so a tie keeps replica id order and the
unemitted come last. Slot j of a round with e outputs takes its verdict's
seq less e, plus j; an unemitted slot writes no line.

The writer (`rounds`) fills `%` templates, one per emitted count e and
rendezvous outcome: COMPLETION e times, then `verdict_template`.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat

import numpy as np

from . import __version__
from .rng import fnv1a64
from .voting import ACTIONS, MISMATCH, OPERATIONAL, PASS, SAFE_OFF, TIMEOUT, VERDICTS

_PASS, _MISMATCH, _TIMEOUT = VERDICTS.index(PASS), VERDICTS.index(MISMATCH), VERDICTS.index(TIMEOUT)

# Rounds are written in pieces of at most this many rounds, which caps the
# trace text held at once.
WRITE_ROUNDS = 128


def header(config, replica_ids, compute_cycles, feed_jitter) -> str:
    digest = fnv1a64(json.dumps(config.to_json_dict(), separators=(",", ":")).encode())
    topo = config.topology
    return (f'{{"t_ns":0,"seq":0,"kind":"header","schema_version":4,"package_version":{json.dumps(__version__)},'
            f'"seed":{config.seed},"config_digest":{digest},"replica_ids":{ids(replica_ids)},'
            f'"compute_cycles":{compute_cycles},"required_agreement":{topo.policy.required_agreement},'
            f'"repetitions_per_frame":{config.workload.repetitions_per_frame},'
            f'"debounce_threshold":{topo.debounce_threshold},"feed_jitter":{json.dumps(feed_jitter)}}}\n')


def ptp(t, seq, replica_id, offset_ns, path_delay_ns):
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"ptp","replica_id":{replica_id},'
            f'"offset_ns":{offset_ns},"path_delay_ns":{path_delay_ns}}}\n')


# A completion line's values: t_ns, seq, replica_id, turnaround_ns and "" or a changed OUTPUT text.
COMPLETION = '{"t_ns":%d,"seq":%d,"kind":"completion","replica_id":%d,"turnaround_ns":%d%s}\n'
# A complete rendezvous in a verdict template; its value is skew_ns.
COMPLETE = ',"rendezvous":"complete","skew_ns":%d'
# The texts of a verdict's tail (and of a changed output's fields); `ids` text fills a %s.
OUTPUT = ',"digest":%d,"classification":%d'
TIMED_OUT = ',"rendezvous":"timeout","present_ids":%s,"missing_ids":%s'
DIVERGED = ',"bus_divergence":{"replica_a":%d,"replica_b":%d,"event_index":%d}'
AGREED = ',"agreeing_ids":%s,"agreed_digest":%d'
SWITCH = ',"state":"%s","action":"%s","consecutive_faults":%d'


def verdict_template(deliveries, rendezvous):
    """The `%` template of a verdict line: `deliveries` is the number of
    delivery_ns values (0: no field), `rendezvous` COMPLETE or "%s". Its
    values: t_ns, seq, any deliveries, the rendezvous's and the tail."""
    fields = f',"delivery_ns":{ids(["%d"] * deliveries)}' if deliveries else ""
    return '{"t_ns":%d,"seq":%d,"kind":"verdict"' + fields + rendezvous + '%s}\n'


def ids(values) -> str:
    """JSON text of a list of ints, as json.dumps writes it compactly."""
    return "[" + ",".join(map(str, values)) + "]"


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


def rounds(write, first_seq, c, replica_ids, required, threshold) -> int:
    """Write the records of a chunk of rounds, whose first takes seq
    `first_seq`, with `write`; return the seq after its last round.
    `required` is the policy's required agreement and `threshold` the
    safety switch's debounce threshold.

    `c` holds the columns of `experiment.ExperimentRunner._run_chunk`, one
    row per round and, in the two-axis ones, one column per healthy replica
    in `replica_ids`: reps (the repetition); clean and classes (the clean
    output's digest, and its classification on each round of repetition 0);
    starts and ends (the release and record times); feed (each delivery
    time after the release, None where the header says no feed jitter),
    comp and emit (each completion time after the release, whether
    emitted); present, complete and skew (the rendezvous); verdict (an
    index in `VERDICTS`); labels, best and agreed (the agreement groups, the
    winning group, the agreed digest); diverged, other and index (the bus
    divergence, with which column, at which event); action and counts (the
    safety switch after the round; `DELIVER_OUTPUT` exactly where the count
    is 0). digests and outputs hold each output, or are None when no value
    fault can fire.

    Arrays and templates are built once per chunk. Each `WRITE_ROUNDS`
    rounds, a piece, turns its slice into lists, one value tuple per round,
    patches only its sparse rows and joins the rounds' `%` texts in one
    write, so every Python str and list lives for one piece only. (One `%`
    over a piece grows its buffer by reallocation, which fragments the heap;
    `str.join` sizes the text once.)
    """
    starts, comp, emit, codes = c["starts"], c["comp"], c["emit"], c["verdict"]
    counts, complete, present, feed = c["counts"], c["complete"], c["present"], c["feed"]
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
    # their agreement, the other verdicts, frames' first rounds and the
    # safety switch away from rest
    changed = (np.zeros(0, dtype=np.int64),)
    odd, split = np.flatnonzero((emitted < k) | (~complete & bool(k))), np.flatnonzero(c["diverged"])
    if c["digests"] is not None:
        rows, at = np.nonzero(np.take_along_axis(emit & (c["digests"] != c["clean"][:, None]), slot, axis=1))
        changed = (rows, at, c["digests"][rows, slot[rows, at]], c["outputs"][rows, slot[rows, at]].argmax(axis=1))
    divergences = (split, replicas[emit[split].argmax(axis=1)], replicas[c["other"][split]],
                   c["index"][split]) if split.size else (split,)
    outside = c["labels"] != c["best"][:, None]
    named = np.flatnonzero((codes == _PASS) & (outside.any(axis=1) | (c["agreed"] != c["clean"])))
    failed, firsts, faulty = np.flatnonzero(codes != _PASS), np.flatnonzero(c["reps"] == 0), np.flatnonzero(counts)
    sparse = zip(_pieces(n, *changed), _pieces(n, odd, emitted[odd], complete[odd], present[odd], ~present[odd]),
                 _pieces(n, *divergences), _pieces(n, named, ~outside[named], c["agreed"][named]),
                 _pieces(n, failed, codes[failed], c["labels"][failed]),
                 _pieces(n, firsts, c["clean"][firsts], c["classes"]),
                 _pieces(n, faulty, c["action"][faulty], counts[faulty]))
    del slot, outside

    degraded = reason(f"{k} output(s) cannot reach {required}-way agreement" if k else "no healthy replicas")
    shapes = {(e, done): COMPLETION * e + verdict_template(0 if feed is None else k, COMPLETE if done else "%s")
              for e in range(k + 1) for done in (False, True)}

    for a, (news, others, splits, agreements, fails, cleans, faults) in zip(range(0, n, WRITE_ROUNDS), sparse):
        s, m = slice(a, a + WRITE_ROUNDS), min(WRITE_ROUNDS, n - a)
        texts = [[""] * m for _ in range(k)]
        for j, i, d, cls in zip(*news):
            texts[i][j - a] = OUTPUT % (d, cls)
        # the tail: any clean output, any bus divergence, the variant and its fields, any safety switch fields
        tails = [',"variant":"pass"'] * m
        for j, agreeing, d in zip(*agreements):
            tails[j - a] += AGREED % (ids(compress(replica_ids, agreeing)), d)
        for j, code, labels in zip(*fails):
            tails[j - a] = f',"variant":"{VERDICTS[code]}"' + (
                groups([[r for r, g in zip(replica_ids, labels) if g == group] for group in range(max(labels) + 1)])
                if code == _MISMATCH else "" if code == _TIMEOUT else degraded)
        for j, replica_a, replica_b, event in zip(*splits):
            tails[j - a] = DIVERGED % (replica_a, replica_b, event) + tails[j - a]
        for j, d, cls in zip(*cleans):
            tails[j - a] = OUTPUT % (d, cls) + tails[j - a]
        for j, action, count in zip(*faults):
            tails[j - a] += SWITCH % (SAFE_OFF if count >= threshold else OPERATIONAL, ACTIONS[action], count)
        values = list(zip(*chain.from_iterable(zip(*(x[s].T.tolist() for x in slots), texts)),
                          c["ends"][s].tolist(), verdict_seqs[s].tolist(),
                          *(() if feed is None else feed[s].T.tolist()), c["skew"][s].tolist() if k else repeat(""),
                          tails))
        templates = [shapes[k, bool(k)]] * m
        # an odd round keeps only its emitted slots' 5 values each; a timeout's rendezvous, 2nd from last, is text
        for j, e, done, here, gone in zip(*others):
            row = values[j - a]
            rendezvous = row[-2] if done else TIMED_OUT % (ids(compress(replica_ids, here)),
                                                           ids(compress(replica_ids, gone)))
            values[j - a], templates[j - a] = (*row[:5 * e], *row[5 * k:-2], rendezvous, row[-1]), shapes[e, done]
        write("".join(map(str.__mod__, templates, values)))
    return int(verdict_seqs[-1]) + 1
