"""MooN voter/checker and the safety-switch-off state machine, over arrays.

Every function here decides a batch of rounds at once: one row per round
and one column per replica, in replica-id order.

The redundant configurations here are checkers, not choosers: with two or
more channels a verdict needs at least two agreeing outputs, so a lone
channel can never pass its own corrupted value through. The named duplex
policies (1oo2, 2oo2) therefore both behave as comparators on
disagreement; the m/n pair is kept as the architecture label.

A round's verdict: a rendezvous that did not complete is a timeout,
whatever the values. Too few outputs to ever reach the threshold is
degraded rather than mismatch: a missing channel and a disagreeing channel
are different failure modes. Otherwise the outputs are grouped by agreement
(`agreement_labels`), and the largest group of at least
`required_agreement` members passes, ties between equal-size groups going
to the group of the lowest replica id (`vote_rounds`); anything else is a
mismatch.

The safety switch (`safety_scan`) counts consecutive non-pass verdicts;
reaching the debounce threshold enters SafeOff, which is absorbing;
recovery is an operator action outside this model.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError
from .fixedpoint import FRAC_BITS
from .record import Record

_POLICY_RE = re.compile(r"^(\d+)oo(\d+)$")


class VotingPolicy(Record, frozen=True):
    m: int
    n: int
    bounds = {"m": (1, 8), "n": (1, 8)}

    def __post_init__(self):
        if self.m > self.n:
            raise ConfigError(f"voting policy needs m <= n, got {self.m}oo{self.n}")

    @property
    def required_agreement(self) -> int:
        """Smallest agreeing group that may pass. A redundant system (n >= 2)
        always needs two witnesses; a simplex channel has nothing to check."""
        return self.m if self.n == 1 else max(self.m, 2)

    @classmethod
    def named(cls, name: str) -> "VotingPolicy":
        m = _POLICY_RE.match(name.strip())
        if not m:
            raise ConfigError(f"cannot parse voting policy {name!r}; expected the form 'MooN', e.g. '2oo3'")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.m}oo{self.n}"


class Exact(Record, frozen=True):
    """Agreement means digest equality (an equivalence relation)."""


class Tolerance(Record, frozen=True):
    """Agreement means max absolute difference of dequantized outputs
    within eps. Reflexive and symmetric, knowingly not transitive."""

    eps: float
    bounds = {"eps": (0.0, None)}


def agreement_labels(comparator, digests, outputs=None) -> np.ndarray:
    """The agreement group of each output, as an int64 array of the shape
    of `digests`: a uint64 array holding each output's `tensor_digest`.
    Under `Tolerance`, `outputs` holds the outputs themselves, an int16
    array with one more axis.

    Each row is scanned in column order; an output joins the first group
    whose pivot (its first member) agrees with it, else founds the next
    group. Under `Exact` this gives the digest equivalence classes; under a
    tolerance it is a deterministic greedy rule, which compares the values
    widened to int64."""
    n, k = digests.shape
    labels = np.zeros((n, k), dtype=np.int64)
    pivots = np.zeros((n, k), dtype=np.int64)  # pivots[r, g]: the column of group g's pivot
    founded = np.ones(n, dtype=np.int64)
    at = np.arange(n)
    exact = isinstance(comparator, Exact)
    for i in range(1, k):
        label = np.full(n, -1)
        for g in range(i):
            p = pivots[:, g]
            if exact:
                agree = digests[at, p] == digests[:, i]
            else:
                diff = np.subtract(outputs[at, p], outputs[:, i], dtype=np.int64)
                agree = (np.abs(diff) <= comparator.eps * (1 << FRAC_BITS)).all(axis=1)
            label[(label < 0) & (g < founded) & agree] = g
        new = label < 0
        label[new] = founded[new]
        pivots[new, founded[new]] = i
        founded += new
        labels[:, i] = label
    return labels


PASS = "pass"
MISMATCH = "mismatch"
TIMEOUT = "timeout"
DEGRADED = "degraded"
# a verdict code is its index here, the order of report.json's verdict_counts
VERDICTS = (PASS, MISMATCH, TIMEOUT, DEGRADED)
_PASS, _MISMATCH, _TIMEOUT, _DEGRADED = range(4)


def vote_rounds(complete, labels, required):
    """(verdict, best): per round, the index in `VERDICTS` of its verdict
    and the label of its largest agreement group. `complete` flags the
    rounds whose rendezvous completed, in which every column's output is
    present; `labels` are their `agreement_labels` and `required` is the
    policy's `required_agreement`."""
    n, k = labels.shape
    if k < required:
        decided, best = _DEGRADED, np.zeros(n, dtype=np.int64)
    elif not labels.any():  # one group of every output
        decided, best = _PASS, np.zeros(n, dtype=np.int64)
    else:
        sizes = np.stack([(labels == g).sum(axis=1) for g in range(k)], axis=1)
        best = sizes.argmax(axis=1)  # the first largest group: its pivot has the lowest id
        decided = np.where(sizes.max(axis=1) >= required, _PASS, _MISMATCH)
    return np.where(complete, decided, _TIMEOUT), best


OPERATIONAL = "operational"
SAFE_OFF = "safe_off"

DELIVER_OUTPUT = "deliver_output"
SUPPRESS_OUTPUT = "suppress_output"
ENTER_SAFE_OFF = "enter_safe_off"
ACTIONS = (DELIVER_OUTPUT, SUPPRESS_OUTPUT, ENTER_SAFE_OFF)


def safety_scan(faulty, threshold, count=0):
    """Step the safety switch over a run of rounds from `count` consecutive
    faults. `faulty` flags each round whose verdict is not a pass. A pass
    resets the count and delivers; any other verdict counts toward
    `threshold` and suppresses; reaching it enters SafeOff, which
    suppresses from then on and keeps its count. The count is the switch's
    whole state: from a count below `threshold`, the round that enters
    SafeOff counts exactly `threshold`, so the switch is in SafeOff exactly
    when its count is at least `threshold`.

    Returns (action, counts): per round the index in `ACTIONS` of its
    action and the consecutive fault count after it."""
    n = len(faulty)
    if count >= threshold:
        return np.ones(n, dtype=np.int64), np.full(n, count, dtype=np.int64)
    if not faulty.any():
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    at = np.arange(n)
    last_pass = np.maximum.accumulate(np.where(faulty, -1, at))
    counts = np.where(last_pass >= 0, at - last_pass, at + 1 + count)
    action = faulty.astype(np.int64)
    over = np.flatnonzero(counts >= threshold)
    if over.size:
        entered = int(over[0])
        action[entered] = ACTIONS.index(ENTER_SAFE_OFF)
        action[entered + 1:] = ACTIONS.index(SUPPRESS_OUTPUT)
        counts[entered + 1:] = counts[entered]
    return action, counts
