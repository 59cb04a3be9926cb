"""The coupling layer between redundant channels.

Synchronized input distribution, output rendezvous with a timeout window,
bus-trace comparison for tight coupling, and a two-step offset/path-delay
estimate for loosely-coupled modules on separate clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, NoHealthyReplicas, ProtocolError
from .eventsim import JitterModel, sample_turnaround_overhead
from .rng import Rng


@dataclass(frozen=True)
class Tight:
    """Shared-clock lockstep; completions must land within a small cycle skew."""

    skew_tolerance_cycles: int = 2

    def __post_init__(self):
        if self.skew_tolerance_cycles < 0:
            raise ConfigError("skew_tolerance_cycles must be non-negative")


@dataclass(frozen=True)
class Loose:
    """Asynchronous channels; outputs must rendezvous within a time window."""

    rendezvous_window_ns: int

    def __post_init__(self):
        if self.rendezvous_window_ns <= 0:
            raise ConfigError("rendezvous_window_ns must be positive")


@dataclass(frozen=True)
class InputBarrier:
    frame_id: int
    release_time: int
    deliveries: tuple  # (replica_id, delivery_time_ns), in replica order


def distribute_input(frame_id: int, release_time: int, replica_ids, mode, feeds=None) -> InputBarrier:
    """Plan the delivery of one frame to every healthy replica.

    Tight coupling delivers to all replicas at the release time exactly.
    Loose coupling delays each delivery by an independent draw from that
    replica's feed jitter stream; `feeds` is a list of (JitterModel, Rng)
    aligned with `replica_ids`.
    """
    replica_ids = list(replica_ids)
    if not replica_ids:
        raise NoHealthyReplicas("no healthy replicas to feed")
    if isinstance(mode, Tight) or feeds is None:
        deliveries = tuple((rid, release_time) for rid in replica_ids)
    else:
        deliveries = []
        for rid, (model, rng) in zip(replica_ids, feeds):
            deliveries.append((rid, release_time + sample_turnaround_overhead(model, rng)))
        deliveries = tuple(deliveries)
    return InputBarrier(frame_id, release_time, deliveries)


@dataclass(frozen=True)
class Complete:
    present: tuple  # (replica_id, completion_time_ns), time-sorted
    skew_ns: int


@dataclass(frozen=True)
class Timeout:
    present_ids: tuple
    missing_ids: tuple


def rendezvous(expected_ids, arrivals, window_ns: int):
    """Collect outputs for one frame.

    The window opens at the first arrival; every expected id arriving
    within [first, first + window] is present, the rest (late or never)
    are missing. Complete reports the max pairwise completion gap.
    """
    if window_ns <= 0:
        raise ConfigError("rendezvous window must be positive")
    expected = set(expected_ids)
    seen = set()
    for rid, _ in arrivals:
        if rid in seen:
            raise ProtocolError(f"duplicate output from replica {rid} within one frame")
        if rid not in expected:
            raise ProtocolError(f"output from unexpected replica {rid}")
        seen.add(rid)
    arr = sorted(arrivals, key=lambda it: (it[1], it[0]))
    if not arr:
        return Timeout((), tuple(sorted(expected)))
    cutoff = arr[0][1] + window_ns
    present = [(rid, t) for rid, t in arr if t <= cutoff]
    present_ids = {rid for rid, _ in present}
    if present_ids == expected:
        return Complete(tuple(present), present[-1][1] - present[0][1])
    return Timeout(
        tuple(sorted(present_ids)),
        tuple(sorted(expected - present_ids)),
    )


@dataclass(frozen=True)
class Divergence:
    event_index: int
    reason: str


def compare_bus_traces(a, b):
    """Compare two bus traces of one network on one engine.

    Returns None on match, else the first Divergence. Both traces run the
    same cycle schedule (see `replica`), so their event kinds, cycles and
    lengths agree, and the first divergence is the first event whose
    payload digest differs: the fetch of layer L's parameters (event 4L),
    its load of the input (4L+1) or its execute (4L+2). A store repeats its
    execute's digest, so it is never first.
    """
    if a == b:
        return None
    (params_a, row_a), (params_b, row_b) = a, b
    for layer, (pa, pb) in enumerate(zip(params_a, params_b)):
        if pa != pb:
            return Divergence(4 * layer, "payload digest mismatch")
        if row_a[layer] != row_b[layer]:
            return Divergence(4 * layer + 1, "payload digest mismatch")
        if row_a[layer + 1] != row_b[layer + 1]:
            return Divergence(4 * layer + 2, "payload digest mismatch")
    return None


@dataclass(frozen=True)
class PtpExchange:
    """Two-step exchange timestamps: master send, slave receive, slave send,
    master receive. t2/t3 are slave-clock times, t1/t4 master-clock."""

    t1: int
    t2: int
    t3: int
    t4: int


@dataclass(frozen=True)
class PtpEstimate:
    offset_ns: int      # positive when the slave clock runs ahead
    path_delay_ns: int


def _half_toward_zero(v: int) -> int:
    return v // 2 if v >= 0 else -((-v) // 2)


def estimate_ptp_offset(x: PtpExchange) -> PtpEstimate:
    """Standard two-step estimate: offset = ((t2-t1) - (t4-t3)) / 2,
    path delay = ((t2-t1) + (t4-t3)) / 2, halving toward zero."""
    if x.t4 < x.t1 or x.t3 < x.t2:
        raise ProtocolError(f"inconsistent exchange timestamps {x}")
    fwd = x.t2 - x.t1
    ret = x.t4 - x.t3
    if fwd + ret < 0:
        raise ProtocolError(f"negative computed path delay for {x}")
    return PtpEstimate(_half_toward_zero(fwd - ret), _half_toward_zero(fwd + ret))


def simulate_ptp_exchange(t1: int, true_offset_ns: int, forward_delay_ns: int,
                          return_delay_ns: int, slave_turnaround_ns: int = 0) -> PtpExchange:
    """Build the exchange a master and a slave with the given true clock
    offset and one-way path delays would produce."""
    if forward_delay_ns < 0 or return_delay_ns < 0 or slave_turnaround_ns < 0:
        raise ConfigError("path delays and turnaround must be non-negative")
    t2 = t1 + forward_delay_ns + true_offset_ns
    t3 = t2 + slave_turnaround_ns
    t4 = (t3 - true_offset_ns) + return_delay_ns
    return PtpExchange(t1, t2, t3, t4)
