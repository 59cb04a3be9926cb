import pytest

from lockstepsim.coupling import (
    Complete,
    Loose,
    PtpExchange,
    Tight,
    Timeout,
    compare_bus_traces,
    distribute_input,
    estimate_ptp_offset,
    rendezvous,
    simulate_ptp_exchange,
)
from lockstepsim.errors import ConfigError, NoHealthyReplicas, ProtocolError
from lockstepsim.eventsim import JitterModel
from lockstepsim.rng import Rng
from oracles import _BusEvent, _compare_bus_traces


def skews(barrier):
    """Delivery delay after the release, per replica."""
    return {rid: t - barrier.release_time for rid, t in barrier.deliveries}


class TestDistributeInput:
    def test_tight_all_deliveries_at_release(self):
        barrier = distribute_input(0, 1000, [0, 1], Tight())
        assert barrier.deliveries == ((0, 1000), (1, 1000))
        assert set(skews(barrier).values()) == {0}

    def test_loose_zero_jitter_zero_skew(self):
        feeds = [(JitterModel(), Rng(1).child("f0")), (JitterModel(), Rng(1).child("f1"))]
        barrier = distribute_input(0, 1000, [0, 1], Loose(100), feeds)
        assert set(skews(barrier).values()) == {0}

    def test_loose_bounded_jitter_bounded_skew(self):
        # delays take values {0, J}: the skew can never exceed J
        J = 250
        model = JitterModel(mode2_offset_ns=J, mode2_prob=0.5)
        feeds = [(model, Rng(5).child("f0")), (model, Rng(5).child("f1"))]
        worst = 0
        for frame in range(10_000):
            barrier = distribute_input(frame, frame * 1000, [0, 1], Loose(10_000), feeds)
            delays = skews(barrier)
            assert all(0 <= s <= J for s in delays.values())
            worst = max(worst, max(delays.values()) - min(delays.values()))
        assert worst == J  # both branches actually exercised

    def test_no_healthy_replicas(self):
        with pytest.raises(NoHealthyReplicas):
            distribute_input(0, 0, [], Tight())


class TestRendezvous:
    def test_both_inside_window(self):
        out = rendezvous([0, 1], [(0, 100), (1, 105)], 10)
        assert isinstance(out, Complete)
        assert out.skew_ns == 5

    def test_missing_replica(self):
        out = rendezvous([0, 1], [(0, 100)], 10)
        assert out == Timeout((0,), (1,))

    def test_late_arrival_is_missing(self):
        out = rendezvous([0, 1], [(0, 100), (1, 115)], 10)
        assert out == Timeout((0,), (1,))

    def test_boundary_is_inclusive(self):
        out = rendezvous([0, 1], [(0, 100), (1, 110)], 10)
        assert isinstance(out, Complete)
        assert out.skew_ns == 10

    def test_no_arrivals(self):
        assert rendezvous([0, 1], [], 10) == Timeout((), (0, 1))

    def test_duplicate_output_protocol_error(self):
        with pytest.raises(ProtocolError):
            rendezvous([0, 1], [(0, 100), (0, 101)], 10)

    def test_unexpected_replica_protocol_error(self):
        with pytest.raises(ProtocolError):
            rendezvous([0], [(3, 100)], 10)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError):
            rendezvous([0], [(0, 100)], 0)

    def test_every_frame_yields_exactly_one_outcome(self):
        # totality: any arrival pattern classifies as Complete xor Timeout
        rng = Rng(17)
        for _ in range(500):
            arrivals = [(rid, 100 + rng.randrange(40)) for rid in range(3) if rng.randrange(4)]
            out = rendezvous([0, 1, 2], arrivals, 20)
            assert isinstance(out, (Complete, Timeout))


# Two layers: parameter digests, then the digest row (input, layer 0
# output, layer 1 output).
TRACE = ((11, 22), (33, 44, 55))


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
        assert compare_bus_traces(TRACE, TRACE) is None
        assert compare_bus_traces(TRACE, ((11, 22), (33, 44, 55))) is None

    def test_each_payload_diverges_at_its_event(self):
        assert compare_bus_traces(TRACE, ((11, 99), (33, 44, 55))) == 4
        assert compare_bus_traces(TRACE, ((11, 22), (99, 44, 55))) == 1
        assert compare_bus_traces(TRACE, ((11, 22), (33, 99, 55))) == 2
        assert compare_bus_traces(TRACE, ((11, 22), (33, 44, 99))) == 6

    def test_first_divergence_wins(self):
        assert compare_bus_traces(TRACE, ((99, 22), (33, 44, 88))) == 0

    def test_matches_the_event_by_event_compare(self):
        # The event-by-event compare of the frozen reference runner, over the
        # events of one shared schedule, gives the same event index, and its
        # reason is always the one the bus_divergence record writes.
        rng = Rng(23)
        for _ in range(500):
            a = (tuple(rng.randrange(2) for _ in range(3)), tuple(rng.randrange(2) for _ in range(4)))
            b = (tuple(rng.randrange(2) for _ in range(3)), tuple(rng.randrange(2) for _ in range(4)))
            ref = _compare_bus_traces(_events(a), _events(b), 2)
            div = compare_bus_traces(a, b)
            assert (div is None) == (ref is None)
            if div is not None:
                assert tuple(ref) == (div, "payload digest mismatch")
                assert compare_bus_traces(b, a) == div


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
