"""trace.jsonl: a run's records, one JSON object per line (schema_version 5).

Each line is `json.dumps(record, separators=(",", ":"))` and a newline. A
record starts with "t_ns" (simulated time), "seq" (its line index, from 0)
and "kind", one of four:

header: line 1, at t_ns 0: schema_version, package_version, the seed,
config_digest (`rng.fnv1a64` of the expanded config's compact JSON),
replica_ids (the healthy replicas, in the order of every per-replica list
below), compute_cycles of one inference, required_agreement,
repetitions_per_frame, debounce_threshold, feed_jitter (false under tight
coupling, or if each healthy replica's feed model is `JitterModel()`),
window_ns (the rendezvous window) and clock_offsets_ns (each healthy
replica's clock offset).

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
is 0; the clean output's digest and classification, on a frame's first
round only; bus_divergence {replica_a, replica_b, event_index} if the buses
diverged; and the variant, with its fields. A pass names agreeing_ids and
agreed_digest only where a healthy replica is outside the agreeing group,
or the agreed digest is not the clean one. A mismatch names its groups.

A reader re-derives the checker's conclusions from the checker's inputs:
- arrival: a completion arrives at the checker at its turnaround_ns plus
  its replica's clock_offsets_ns less that replica's PTP offset_ns (0
  without PTP).
- rendezvous: the window opens at the round's first arrival and closes
  window_ns later, inclusive. A replica whose output arrives in it is
  present, the rest (late or unemitted) are missing, each in replica_ids
  order. With every replica present the rendezvous is "complete" and its
  skew_ns is the last arrival less the first; else it is a "timeout". A
  round with no healthy replica has none, and a timeout verdict's missing
  ids are its rendezvous's.
- safety switch: the consecutive fault count starts at 0. A pass resets it
  and delivers (deliver_output), any other variant adds one and suppresses
  (suppress_output), and the round whose count reaches debounce_threshold
  enters SafeOff (enter_safe_off). SafeOff absorbs: each later round
  suppresses and keeps the count. The state is "safe_off" from the entering
  round on, else "operational".
- a degraded verdict's reason: "no healthy replicas" if replica_ids is
  empty, else "<the number of replica_ids> output(s) cannot reach
  <required_agreement>-way agreement".

The seq rule: a round's completions take the next seqs in (time, replica
id) order and its verdict the one after them. Rounds never overlap and a
verdict's time is at or after its round's completions, so (t_ns, seq)
strictly increases. The writer lays a round out in slots, one per healthy
replica: a stable sort of the completion times, with an unemitted output's
time taken as the int64 maximum, so a tie keeps replica id order and the
unemitted come last. Slot j of a round with e outputs takes its verdict's
seq less e, plus j; an unemitted slot writes no line.

The writer (`rounds`) fills one `bytes` `%` template per round of k slots and
e outputs: COMPLETION e times, "%.0a" 5 (k - e) times, then `verdict_template`.
So every value tuple holds all k slots' 5 values, and "%.0a" prints nothing.
"""

from __future__ import annotations

import json
from itertools import chain, compress

import numpy as np

from . import __version__
from .rng import fnv1a64
from .voting import MISMATCH, PASS, VERDICTS

_PASS, _MISMATCH = VERDICTS.index(PASS), VERDICTS.index(MISMATCH)

# Rounds are written in pieces of at most this many rounds, which caps the
# trace text held at once.
WRITE_ROUNDS = 128


def header(config, expanded, replica_ids, compute_cycles, feed_jitter, window_ns) -> bytes:
    digest = fnv1a64(json.dumps(expanded, separators=(",", ":")).encode())
    topo = config.topology
    offsets = ids(topo.clock_offsets_ns[rid] for rid in replica_ids).decode()
    return (f'{{"t_ns":0,"seq":0,"kind":"header","schema_version":5,"package_version":{json.dumps(__version__)},'
            f'"seed":{config.seed},"config_digest":{digest},"replica_ids":{ids(replica_ids).decode()},'
            f'"compute_cycles":{compute_cycles},"required_agreement":{topo.policy.required_agreement},'
            f'"repetitions_per_frame":{config.workload.repetitions_per_frame},'
            f'"debounce_threshold":{topo.debounce_threshold},"feed_jitter":{json.dumps(feed_jitter)},'
            f'"window_ns":{window_ns},"clock_offsets_ns":{offsets}}}\n').encode()


def ptp(t, seq, replica_id, offset_ns, path_delay_ns) -> bytes:
    return (f'{{"t_ns":{t},"seq":{seq},"kind":"ptp","replica_id":{replica_id},'
            f'"offset_ns":{offset_ns},"path_delay_ns":{path_delay_ns}}}\n').encode()


# A completion line's values: t_ns, seq, replica_id, turnaround_ns and b"" or a changed OUTPUT text.
COMPLETION = b'{"t_ns":%d,"seq":%d,"kind":"completion","replica_id":%d,"turnaround_ns":%d%s}\n'
# The texts of a verdict's tail (and of a changed output's fields); `ids` text fills a %s.
OUTPUT = b',"digest":%d,"classification":%d'
DIVERGED = b',"bus_divergence":{"replica_a":%d,"replica_b":%d,"event_index":%d}'
AGREED = b',"agreeing_ids":%s,"agreed_digest":%d'


def verdict_template(deliveries):
    """The `%` template of a verdict line: `deliveries` is the number of
    delivery_ns values (0: no field). Its values: t_ns, seq, any deliveries
    and the tail."""
    fields = b',"delivery_ns":' + ids(["%d"] * deliveries) if deliveries else b""
    return b'{"t_ns":%d,"seq":%d,"kind":"verdict"' + fields + b'%s}\n'


def ids(values) -> bytes:
    """JSON text of a list of ints, as json.dumps writes it compactly."""
    return ("[" + ",".join(map(str, values)) + "]").encode()


def groups(members) -> bytes:
    """A mismatch verdict's fields: the replica ids of each group."""
    return b',"groups":[' + b",".join(map(ids, members)) + b"]"


def rounds(write, first_seq, c, replica_ids) -> int:
    """Write the records of a chunk of rounds, whose first takes seq
    `first_seq`, with `write`; return the seq after its last round.

    `c` holds the columns of `experiment.ExperimentRunner._run_chunk`, one
    row per round and, in the two-axis ones, one column per healthy replica
    in `replica_ids`: reps (the repetition); clean and classes (the clean
    output's digest, and its classification on each round of repetition 0);
    starts and ends (the release and record times); feed (each delivery
    time after the release, None where the header says no feed jitter),
    comp and emit (each completion time after the release, whether
    emitted); verdict (an index in `VERDICTS`); labels, best and agreed
    (the agreement groups, the winning group, the agreed digest); diverged,
    other and index (the bus divergence, with which column, at which
    event). digests and outputs hold each output, or are None when no value
    fault can fire.

    Per chunk it lays out the arrays and, one entry per round, each slot's
    changed-output text, each verdict's tail and each template: each sparse
    case patches its rows once. Each `WRITE_ROUNDS` rounds, a piece, turns
    its slice into value tuples and joins their `%` texts in one write, so
    Python ints and text live for one piece only. (One `%` over a piece
    grows its buffer by reallocation, which fragments the heap; `bytes.join`
    sizes it once. All text is `bytes`: bytes `%` fills a plain buffer, where
    str `%` goes through the unicode writer and a text file encodes again.)
    """
    starts, comp, emit, codes, feed = c["starts"], c["comp"], c["emit"], c["verdict"], c["feed"]
    n, k = emit.shape
    emitted = emit.sum(axis=1)
    verdict_seqs = first_seq - 1 + np.cumsum(emitted + 1)
    replicas = np.array(replica_ids, dtype=np.int64)
    slot = np.argsort(np.where(emit, comp, np.iinfo(np.int64).max), axis=1, kind="stable")
    turnarounds = np.take_along_axis(comp, slot, axis=1)
    slots = (starts[:, None] + turnarounds, (verdict_seqs - emitted)[:, None] + np.arange(k), replicas[slot],
             turnarounds)
    texts = [[b""] * n for _ in range(k)]
    if c["digests"] is not None:
        rows, at = np.nonzero(np.take_along_axis(emit & (c["digests"] != c["clean"][:, None]), slot, axis=1))
        for j, i, d, cls in zip(rows.tolist(), at.tolist(), c["digests"][rows, slot[rows, at]].tolist(),
                                c["outputs"][rows, slot[rows, at]].argmax(axis=1).tolist()):
            texts[i][j] = OUTPUT % (d, cls)
    del slot
    # the tail: any clean output, any bus divergence, the variant and its fields
    tails = [b',"variant":"pass"'] * n
    outside = c["labels"] != c["best"][:, None]
    named = np.flatnonzero((codes == _PASS) & (outside.any(axis=1) | (c["agreed"] != c["clean"])))
    for j, agreeing, d in zip(named.tolist(), (~outside[named]).tolist(), c["agreed"][named].tolist()):
        tails[j] += AGREED % (ids(compress(replica_ids, agreeing)), d)
    failed = np.flatnonzero(codes != _PASS)
    for j, code, labels in zip(failed.tolist(), codes[failed].tolist(), c["labels"][failed].tolist()):
        tails[j] = f',"variant":"{VERDICTS[code]}"'.encode() + (
            groups([[r for r, g in zip(replica_ids, labels) if g == group] for group in range(max(labels) + 1)])
            if code == _MISMATCH else b"")
    split = np.flatnonzero(c["diverged"])
    if split.size:  # argmax refuses a chunk with no healthy replica
        for j, replica_a, replica_b, event in zip(split.tolist(), replicas[emit[split].argmax(axis=1)].tolist(),
                                                  replicas[c["other"][split]].tolist(), c["index"][split].tolist()):
            tails[j] = DIVERGED % (replica_a, replica_b, event) + tails[j]
    firsts = np.flatnonzero(c["reps"] == 0)
    for j, d, cls in zip(firsts.tolist(), c["clean"][firsts].tolist(), c["classes"].tolist()):
        tails[j] = OUTPUT % (d, cls) + tails[j]
    # a round with e < k outputs prints none of its unemitted slots' 5 values (bytes "%.0s" refuses an int)
    shapes = [COMPLETION * e + b"%.0a" * (5 * (k - e)) + verdict_template(0 if feed is None else k)
              for e in range(k + 1)]
    templates = [shapes[k]] * n
    odd = np.flatnonzero(emitted < k)
    for j, e in zip(odd.tolist(), emitted[odd].tolist()):
        templates[j] = shapes[e]

    for a in range(0, n, WRITE_ROUNDS):
        s = slice(a, a + WRITE_ROUNDS)
        values = zip(*chain.from_iterable(zip(*(x[s].T.tolist() for x in slots), (t[s] for t in texts))),
                     c["ends"][s].tolist(), verdict_seqs[s].tolist(),
                     *(() if feed is None else feed[s].T.tolist()), tails[s])
        write(b"".join(map(bytes.__mod__, templates[s], values)))
    return int(verdict_seqs[-1]) + 1
