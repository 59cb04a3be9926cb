import numpy as np
import pytest

from lockstepsim.coupling import (
    Loose,
    PtpExchange,
    bus_traces,
    compare_bus_traces,
    estimate_ptp_offset,
    rendezvous_rounds,
    simulate_ptp_exchange,
)
from lockstepsim.errors import ConfigError, ProtocolError
from lockstepsim.eventsim import JitterModel, sample_turnaround_overheads
from helpers import run_with_records, zero_jitter_duplex
from oracles import Complete, Rng, _BusEvent, _compare_bus_traces, rendezvous


def delivery_skews(records):
    """Delivery delay after the release, per (frame, repetition) and replica."""
    return {(r["frame_id"], r["repetition"], r["replica_id"]): r["skew_ns"]
            for r in records if r["kind"] == "delivery"}


class TestInputDelivery:
    def test_tight_all_deliveries_at_release(self):
        raw = zero_jitter_duplex(frames=3, extra_topology={
            "coupling": {"mode": "tight"}, "host_jitter": {"base_overhead_ns": 700, "spike_prob": 0.5,
                                                           "spike_scale_ns": 90}})
        _, _, records = run_with_records(raw)
        skews = delivery_skews(records)
        assert len(skews) == 6 and set(skews.values()) == {0}

    def test_loose_zero_jitter_zero_skew(self):
        _, _, records = run_with_records(zero_jitter_duplex(frames=3))
        skews = delivery_skews(records)
        assert len(skews) == 6 and set(skews.values()) == {0}

    def test_loose_bounded_jitter_bounded_skew(self):
        # delays take values {0, J}: the skew can never exceed J
        J = 250
        model = JitterModel(mode2_offset_ns=J, mode2_prob=0.5)
        a, _ = sample_turnaround_overheads(model, Rng(5).child("f0").seed, 0, 10_000)
        b, _ = sample_turnaround_overheads(model, Rng(5).child("f1").seed, 0, 10_000)
        assert set(a.tolist()) == set(b.tolist()) == {0, J}
        assert np.abs(a - b).max() == J  # both branches actually exercised

    def test_no_healthy_replicas(self):
        # nothing to feed: each round is a release and a degraded verdict
        raw = zero_jitter_duplex(frames=2, extra_topology={"health": ["failed", "switched_off"]})
        _, report, records = run_with_records(raw)
        assert [r["kind"] for r in records] == ["input_release", "verdict", "safety_action"] * 2
        assert {r["reason"] for r in records if r["kind"] == "verdict"} == {"no healthy replicas"}
        assert report.verdict_counts["degraded"] == 2


def outcome(arrivals, window, expected=2):
    """(present columns, complete, deadline) of one round whose outputs
    arrive as {column: time}, and its skew if complete."""
    arrival = np.array([[arrivals.get(i, 0) for i in range(expected)]])
    emitted = np.array([[i in arrivals for i in range(expected)]])
    present, complete, skew, deadline = rendezvous_rounds(arrival, emitted, window)
    result = [i for i in range(expected) if present[0, i]], bool(complete[0]), int(deadline[0])
    return result + (int(skew[0]),) if complete[0] else result


class TestRendezvous:
    def test_both_inside_window(self):
        assert outcome({0: 100, 1: 105}, 10) == ([0, 1], True, 105, 5)

    def test_missing_replica(self):
        assert outcome({0: 100}, 10) == ([0], False, 110)

    def test_late_arrival_is_missing(self):
        assert outcome({0: 100, 1: 115}, 10) == ([0], False, 110)

    def test_window_opens_at_the_first_arrival(self):
        assert outcome({0: 115, 1: 100}, 10) == ([1], False, 110)

    def test_boundary_is_inclusive(self):
        assert outcome({0: 100, 1: 110}, 10) == ([0, 1], True, 110, 10)

    def test_no_arrivals(self):
        # the window opens at the release, time 0
        assert outcome({}, 10) == ([], False, 10)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError):
            Loose(0)

    def test_matches_the_frozen_rendezvous(self):
        # every arrival pattern classifies as the scalar rendezvous does
        rng = Rng(17)
        rounds = [{rid: 100 + rng.randrange(40) for rid in range(3) if rng.randrange(4)} for _ in range(500)]
        arrival = np.array([[r.get(i, 0) for i in range(3)] for r in rounds])
        emitted = np.array([[i in r for i in range(3)] for r in rounds])
        present, complete, skew, deadline = rendezvous_rounds(arrival, emitted, 20)
        for j, r in enumerate(rounds):
            frozen = rendezvous([0, 1, 2], list(r.items()), 20)
            if isinstance(frozen, Complete):
                assert complete[j] and deadline[j] == frozen.present[-1][1]
                assert skew[j] == frozen.skew_ns
            else:
                assert not complete[j]
                assert tuple(np.flatnonzero(present[j]).tolist()) == frozen.present_ids
                assert deadline[j] == (min(r.values()) if r else 0) + 20


# Two layers: parameter digests, then the digest row (input, layer 0
# output, layer 1 output).
TRACE = ((11, 22), (33, 44, 55))


def compare(a, b):
    """`compare_bus_traces` of two single traces, as (params, row) pairs."""
    rows = [bus_traces(np.array(params, dtype=np.uint64), np.array([row], dtype=np.uint64))
            for params, row in (a, b)]
    index = int(compare_bus_traces(*rows)[0])
    return None if index < 0 else index


def _events(trace):
    """The trace as the fetch/load/execute/store events of the shared
    schedule; every event at cycle 0."""
    params, row = trace
    events = []
    for layer, p in enumerate(params):
        events += [_BusEvent(0, "fetch", p), _BusEvent(0, "load", row[layer]),
                   _BusEvent(0, "execute", row[layer + 1]), _BusEvent(0, "store", row[layer + 1])]
    return tuple(events)


class TestCompareBusTraces:
    def test_identical_traces_match(self):
        assert compare(TRACE, TRACE) is None
        assert compare(TRACE, ((11, 22), (33, 44, 55))) is None

    def test_each_payload_diverges_at_its_event(self):
        assert compare(TRACE, ((11, 99), (33, 44, 55))) == 4
        assert compare(TRACE, ((11, 22), (99, 44, 55))) == 1
        assert compare(TRACE, ((11, 22), (33, 99, 55))) == 2
        assert compare(TRACE, ((11, 22), (33, 44, 99))) == 6

    def test_first_divergence_wins(self):
        assert compare(TRACE, ((99, 22), (33, 44, 88))) == 0

    def test_rows_are_compared_independently(self):
        params = np.array([11, 22], dtype=np.uint64)
        a = bus_traces(params, np.array([[33, 44, 55], [33, 44, 55]], dtype=np.uint64))
        b = bus_traces(params, np.array([[33, 44, 55], [33, 44, 99]], dtype=np.uint64))
        assert compare_bus_traces(a, b).tolist() == [-1, 6]

    def test_matches_the_event_by_event_compare(self):
        # The event-by-event compare of the frozen reference runner, over the
        # events of one shared schedule, gives the same event index, and its
        # reason is always the one the bus_divergence record writes.
        rng = Rng(23)
        for _ in range(500):
            a = (tuple(rng.randrange(2) for _ in range(3)), tuple(rng.randrange(2) for _ in range(4)))
            b = (tuple(rng.randrange(2) for _ in range(3)), tuple(rng.randrange(2) for _ in range(4)))
            ref = _compare_bus_traces(_events(a), _events(b), 2)
            div = compare(a, b)
            assert (div is None) == (ref is None)
            if div is not None:
                assert tuple(ref) == (div, "payload digest mismatch")
                assert compare(b, a) == div


class TestPtp:
    def test_symmetric_case(self):
        est = estimate_ptp_offset(PtpExchange(0, 10, 20, 30))
        assert (est.offset_ns, est.path_delay_ns) == (0, 10)

    def test_offset_two(self):
        est = estimate_ptp_offset(PtpExchange(0, 12, 20, 28))
        assert (est.offset_ns, est.path_delay_ns) == (2, 10)

    def test_negative_path_delay_rejected(self):
        # slave turnaround longer than the whole master round trip
        with pytest.raises(ProtocolError):
            estimate_ptp_offset(PtpExchange(0, -100, 300, 100))

    def test_inconsistent_timestamps_rejected(self):
        with pytest.raises(ProtocolError):
            estimate_ptp_offset(PtpExchange(0, 10, 5, 30))  # t3 < t2
        with pytest.raises(ProtocolError):
            estimate_ptp_offset(PtpExchange(100, 110, 120, 90))  # t4 < t1

    def test_halving_rounds_toward_zero(self):
        # fwd - ret odd and negative: -1/2 -> 0, not -1
        est = estimate_ptp_offset(PtpExchange(0, 5, 5, 11))
        assert est.offset_ns == 0  # (5 - 6) / 2 toward zero
        assert est.path_delay_ns == 5  # (5 + 6) / 2 toward zero

    def test_simulated_exchange_recovers_offset_exactly(self):
        for offset in (-1_000_000, -12_345, -1, 0, 1, 999, 1_000_000):
            x = simulate_ptp_exchange(5_000, offset, 800, 800, slave_turnaround_ns=50)
            est = estimate_ptp_offset(x)
            assert est.offset_ns == offset
            assert est.path_delay_ns == 800

    def test_asymmetry_error_is_half_the_asymmetry(self):
        for asym in (-400, -2, 2, 100, 400):  # even values: a/2 is exact
            x = simulate_ptp_exchange(0, 500, 800 + asym, 800, slave_turnaround_ns=10)
            est = estimate_ptp_offset(x)
            assert est.offset_ns - 500 == asym // 2
