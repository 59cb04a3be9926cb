"""The coupling layer between redundant channels.

Tight and loose coupling, the output rendezvous with its timeout window and
the bus-trace comparison for tight coupling (by the parameter ids of
each side's network), each over a batch of rounds as arrays, and a
two-step offset/path-delay estimate for loosely-coupled modules on
separate clocks. Input distribution has no function of its own:
tight coupling delivers every input at its release, and loose coupling
delays each delivery by the round's sample of the replica's feed jitter
(`eventsim.sample_turnaround_overheads`).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ConfigError, ProtocolError
from .record import Record


class Tight(Record, frozen=True):
    """Shared-clock lockstep; completions must land within a small cycle skew."""

    skew_tolerance_cycles: int = 2
    bounds = {"skew_tolerance_cycles": (0, None)}


class Loose(Record, frozen=True):
    """Asynchronous channels; outputs must rendezvous within a time window."""

    rendezvous_window_ns: int
    bounds = {"rendezvous_window_ns": (1, None)}


def rendezvous_rounds(arrival, emitted, window_ns: int):
    """Rendezvous outcomes of a batch of rounds: one row per round, one
    column per expected replica. `arrival` holds the arrival time of each
    output as the checker sees it and `emitted` whether it was emitted.

    The window opens at the first arrival; an output arriving within
    [first, first + window] is present, the rest (late or never) are
    missing. A rendezvous is complete when every expected replica is
    present. Returns (complete, skew, deadline): per round, whether it is
    complete, the skew of a complete rendezvous (its last arrival less its
    first) and the time at which the checker decides, which is the last
    arrival of a complete rendezvous, else the close of the window; a round
    with no output at all opens the window at 0.
    """
    # Reductions across the few columns run column by column: NumPy's
    # axis-1 reduction of a narrow array costs ten times as much.
    everyone = reduce(np.logical_and, emitted.T)
    if everyone.all():
        first = reduce(np.minimum, arrival.T)
    else:
        never = np.iinfo(np.int64).max
        first = reduce(np.minimum, np.where(emitted, arrival, never).T)
        first[first == never] = 0
    last = reduce(np.maximum, arrival.T)
    close = first + window_ns
    complete = everyone & (last <= close)
    return complete, last - first, np.where(complete, last, close)


def compare_bus_traces(a, b):
    """Compare the bus traces of two batches of rounds, given as the
    (rounds, layers) integer parameter ids of the network each side ran,
    equal exactly where the parameters are (`replica.layer_ids`).

    Returns per round the index of the first diverging event, or -1 on a
    match. Both sides infer the same frame on the same cycle schedule (see
    `replica`), so their event kinds, cycles and lengths agree, and every
    payload before the first layer whose parameters differ is equal: the
    first divergence is that layer's fetch, event 4L.
    """
    differ = a != b
    return np.where(differ.any(axis=1), 4 * differ.argmax(axis=1), -1)


def _half_toward_zero(v: int) -> int:
    return v // 2 if v >= 0 else -((-v) // 2)


def estimate_ptp_offset(exchange) -> tuple:
    """(offset_ns, path_delay_ns): the standard two-step estimate from the
    exchange timestamps (t1, t2, t3, t4): master send, slave receive, slave
    send, master receive, with t2/t3 slave-clock times and t1/t4
    master-clock. offset = ((t2-t1) - (t4-t3)) / 2, positive when the slave
    clock runs ahead; path delay = ((t2-t1) + (t4-t3)) / 2; each halved
    toward zero."""
    t1, t2, t3, t4 = exchange
    if t4 < t1 or t3 < t2:
        raise ProtocolError(f"inconsistent exchange timestamps {exchange}")
    fwd = t2 - t1
    ret = t4 - t3
    if fwd + ret < 0:
        raise ProtocolError(f"negative computed path delay for {exchange}")
    return _half_toward_zero(fwd - ret), _half_toward_zero(fwd + ret)


def simulate_ptp_exchange(t1: int, true_offset_ns: int, forward_delay_ns: int,
                          return_delay_ns: int, slave_turnaround_ns: int = 0) -> tuple:
    """The exchange timestamps (t1, t2, t3, t4) that a master and a slave
    with the given true clock offset and one-way path delays would produce."""
    if forward_delay_ns < 0 or return_delay_ns < 0 or slave_turnaround_ns < 0:
        raise ConfigError("path delays and turnaround must be non-negative")
    t2 = t1 + forward_delay_ns + true_offset_ns
    t3 = t2 + slave_turnaround_ns
    t4 = (t3 - true_offset_ns) + return_delay_ns
    return t1, t2, t3, t4
