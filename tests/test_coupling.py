import pytest

from lockstepsim.coupling import (
    Complete,
    Divergence,
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
from lockstepsim.replica import BusEvent, EXECUTE, FETCH, LOAD, STORE
from lockstepsim.rng import Rng


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


def _trace(cycles_and_digests):
    kinds = [FETCH, LOAD, EXECUTE, STORE]
    return tuple(
        BusEvent(c, kinds[i % 4], d) for i, (c, d) in enumerate(cycles_and_digests)
    )


class TestCompareBusTraces:
    def test_identical_traces_match(self):
        t = _trace([(0, 11), (0, 22), (5, 33), (9, 44)])
        assert compare_bus_traces(t, t, 2) is None

    def test_uniform_two_cycle_shift_within_tolerance(self):
        a = _trace([(0, 11), (0, 22), (5, 33), (9, 44)])
        b = _trace([(2, 11), (2, 22), (7, 33), (11, 44)])
        assert compare_bus_traces(a, b, 2) is None

    def test_three_cycle_shift_diverges(self):
        a = _trace([(0, 11), (0, 22), (5, 33), (9, 44)])
        b = _trace([(3, 11), (3, 22), (8, 33), (12, 44)])
        div = compare_bus_traces(a, b, 2)
        assert div == Divergence(0, "cycle skew 3 exceeds tolerance 2")

    def test_digest_mismatch_at_event_three(self):
        a = _trace([(0, 11), (0, 22), (5, 33), (9, 44)])
        b = _trace([(0, 11), (0, 22), (5, 33), (9, 999)])
        div = compare_bus_traces(a, b, 2)
        assert div.event_index == 3
        assert "digest" in div.reason

    def test_kind_mismatch(self):
        a = (BusEvent(0, FETCH, 1),)
        b = (BusEvent(0, LOAD, 1),)
        div = compare_bus_traces(a, b, 2)
        assert div.event_index == 0
        assert "kind" in div.reason

    def test_length_mismatch_reported_at_first_missing(self):
        a = _trace([(0, 11), (0, 22), (5, 33), (9, 44)])
        b = a[:2]
        div = compare_bus_traces(a, b, 2)
        assert div == Divergence(2, "trace length mismatch")

    def test_first_divergence_wins(self):
        a = _trace([(0, 11), (0, 22), (5, 33), (9, 44)])
        b = _trace([(0, 99), (0, 22), (5, 88), (9, 44)])
        assert compare_bus_traces(a, b, 2).event_index == 0

    def test_symmetry_up_to_reason_wording(self):
        rng = Rng(23)
        for _ in range(200):
            a = _trace([(rng.randrange(10), rng.randrange(4)) for _ in range(4)])
            b = _trace([(rng.randrange(10), rng.randrange(4)) for _ in range(4)])
            fwd = compare_bus_traces(a, b, 1)
            rev = compare_bus_traces(b, a, 1)
            if fwd is None:
                assert rev is None
            else:
                assert rev is not None
                assert fwd.event_index == rev.event_index
                assert fwd.reason.split(" ")[0] == rev.reason.split(" ")[0]


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
