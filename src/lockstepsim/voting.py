"""MooN voter/checker and the safety-switch-off state machine.

The redundant configurations here are checkers, not choosers: with two or
more channels a verdict needs at least two agreeing outputs, so a lone
channel can never pass its own corrupted value through. The named duplex
policies (1oo2, 2oo2) therefore both behave as comparators on
disagreement; the m/n pair is kept as the architecture label. SafeOff is
absorbing; recovery is an operator action outside this model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .coupling import Timeout as RendezvousTimeout
from .errors import ConfigError, ProtocolError
from .fixedpoint import FRAC_BITS

_POLICY_RE = re.compile(r"^(\d+)oo(\d+)$")


@dataclass(frozen=True)
class VotingPolicy:
    m: int
    n: int

    def __post_init__(self):
        if not (1 <= self.m <= self.n <= 8):
            raise ConfigError(f"voting policy needs 1 <= m <= n <= 8, got {self.m}oo{self.n}")

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


@dataclass(frozen=True)
class Exact:
    """Agreement means digest equality (an equivalence relation)."""


@dataclass(frozen=True)
class Tolerance:
    """Agreement means max absolute difference of dequantized outputs
    within eps. Reflexive and symmetric, knowingly not transitive."""

    eps: float

    def __post_init__(self):
        if self.eps < 0:
            raise ConfigError("comparator eps must be non-negative")


def outputs_agree(comparator, a, b) -> bool:
    if a.output.shape != b.output.shape:
        raise ProtocolError(
            f"replicas {a.replica_id} and {b.replica_id} produced mismatched shapes "
            f"{a.output.shape} vs {b.output.shape}"
        )
    if isinstance(comparator, Exact):
        return a.digest == b.digest
    # widened: the difference of two int16 values can overflow int16
    diff = np.subtract(a.output.data, b.output.data, dtype=np.int64)
    return bool((np.abs(diff) <= comparator.eps * (1 << FRAC_BITS)).all())


@dataclass(frozen=True)
class AgreementGroup:
    replica_ids: tuple
    pivot: object  # the first-scanned member's ReplicaOutput


def group_agreements(outputs, comparator) -> list:
    """Group outputs by agreement.

    Outputs are scanned in replica-id order; each joins the first existing
    group whose pivot (its first member) agrees with it, else founds a new
    group. For an exact comparator this yields the digest equivalence
    classes; under a tolerance it is a deterministic greedy rule.
    """
    if not outputs:
        raise ProtocolError("agreement grouping needs at least one output")
    ordered = sorted(outputs, key=lambda o: o.replica_id)
    groups = []  # [pivot, [ids]]
    for out in ordered:
        for g in groups:
            if outputs_agree(comparator, g[0], out):
                g[1].append(out.replica_id)
                break
        else:
            groups.append([out, [out.replica_id]])
    return [AgreementGroup(tuple(ids), pivot) for pivot, ids in groups]


PASS = "pass"
MISMATCH = "mismatch"
TIMEOUT = "timeout"
DEGRADED = "degraded"


@dataclass(frozen=True)
class Verdict:
    variant: str
    agreed: object = None      # pivot ReplicaOutput, pass only
    agreeing_ids: tuple = ()
    groups: tuple = ()         # tuple of replica-id tuples, mismatch only
    missing_ids: tuple = ()
    reason: str = ""

    @classmethod
    def passed(cls, agreed, agreeing_ids):
        return cls(PASS, agreed=agreed, agreeing_ids=tuple(agreeing_ids))

    @classmethod
    def mismatch(cls, groups):
        return cls(MISMATCH, groups=tuple(tuple(g) for g in groups))

    @classmethod
    def timeout(cls, missing_ids):
        return cls(TIMEOUT, missing_ids=tuple(missing_ids))

    @classmethod
    def degraded(cls, reason):
        return cls(DEGRADED, reason=reason)


def vote(outputs, policy: VotingPolicy, comparator, outcome=None) -> Verdict:
    """MooN verdict over the outputs of one frame.

    A rendezvous timeout is a Timeout verdict regardless of values. The
    largest agreement group of at least `required_agreement` members wins
    (ties between equal-size groups go to the lowest contained replica id);
    anything else is a Mismatch. Too few outputs to ever reach the
    threshold is Degraded rather than Mismatch: a missing channel and a
    disagreeing channel are different failure modes.
    """
    if isinstance(outcome, RendezvousTimeout):
        return Verdict.timeout(outcome.missing_ids)
    if not outputs:
        return Verdict.timeout(tuple(range(policy.n)))
    required = policy.required_agreement
    if len(outputs) < required:
        return Verdict.degraded(
            f"{len(outputs)} output(s) cannot reach {required}-way agreement"
        )
    groups = group_agreements(outputs, comparator)
    best = max(groups, key=lambda g: (len(g.replica_ids), -min(g.replica_ids)))
    if len(best.replica_ids) >= required:
        return Verdict.passed(best.pivot, best.replica_ids)
    return Verdict.mismatch(tuple(g.replica_ids for g in groups))


OPERATIONAL = "operational"
SAFE_OFF = "safe_off"

DELIVER_OUTPUT = "deliver_output"
SUPPRESS_OUTPUT = "suppress_output"
ENTER_SAFE_OFF = "enter_safe_off"


@dataclass(frozen=True)
class SafetySwitchState:
    state: str = OPERATIONAL
    consecutive_fault_count: int = 0
    debounce_threshold: int = 1

    def __post_init__(self):
        if self.debounce_threshold < 1:
            raise ConfigError("debounce_threshold must be at least 1")


def step_safety(state: SafetySwitchState, verdict: Verdict):
    """Advance the safety switch by one verdict.

    Pass resets the fault counter and delivers; any non-Pass counts toward
    the debounce threshold and suppresses; reaching the threshold enters
    SafeOff, which is absorbing. Returns (new state, action).
    """
    if state.state == SAFE_OFF:
        return state, SUPPRESS_OUTPUT
    if verdict.variant == PASS:
        return replace(state, consecutive_fault_count=0), DELIVER_OUTPUT
    count = state.consecutive_fault_count + 1
    if count >= state.debounce_threshold:
        return replace(state, state=SAFE_OFF, consecutive_fault_count=count), ENTER_SAFE_OFF
    return replace(state, consecutive_fault_count=count), SUPPRESS_OUTPUT
