import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.coupling import (
    Loose,
    compare_bus_traces,
    estimate_ptp_offset,
    rendezvous_rounds,
    simulate_ptp_exchange,
)
from lockstepsim.errors import ConfigError, ProtocolError
from lockstepsim.eventsim import JitterModel, sample_turnaround_overheads
from lockstepsim.faults import flip_weight_bits
from lockstepsim.replica import EngineConfig, gen_frame, gen_weights, layer_ids
from helpers import oracle_network, oracle_tensor, run_with_records, zero_jitter_duplex
from oracles import Complete, Rng, _compare_bus_traces, _infer, rendezvous

ENGINE = EngineConfig()


def delivery_skews(records):
    """Delivery delay after the release, per (frame, repetition) and replica."""
    replica_ids = records[0]["replica_ids"]
    return {(r["frame_id"], r["repetition"], rid): skew
            for r in records if r["kind"] == "verdict" for rid, skew in zip(replica_ids, r["delivery_ns"])}


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
        a, b = (sample_turnaround_overheads(model, (Rng(5).child(name).seed, 0), 0, 10_000)
                for name in ("f0", "f1"))
        assert set(a.tolist()) == set(b.tolist()) == {0, J}
        assert np.abs(a - b).max() == J  # both branches actually exercised

    def test_no_healthy_replicas(self):
        # nothing to feed: each round is a degraded verdict with no deliveries
        raw = zero_jitter_duplex(frames=2, extra_topology={"health": ["failed", "switched_off"]})
        _, report, records = run_with_records(raw)
        assert [r["kind"] for r in records] == ["header", "verdict", "verdict"]
        assert records[0]["replica_ids"] == [] and [r["delivery_ns"] for r in records[1:]] == [[], []]
        assert {r["reason"] for r in records if r["kind"] == "verdict"} == {"no healthy replicas"}
        assert report.verdict_counts["degraded"] == 2


def outcome(arrivals, window, expected=2):
    """(complete, deadline) of one round whose outputs arrive as {column:
    time}, and its skew if complete."""
    arrival = np.array([[arrivals.get(i, 0) for i in range(expected)]])
    emitted = np.array([[i in arrivals for i in range(expected)]])
    complete, skew, deadline = rendezvous_rounds(arrival, emitted, window)
    result = bool(complete[0]), int(deadline[0])
    return result + (int(skew[0]),) if complete[0] else result


class TestRendezvous:
    def test_both_inside_window(self):
        assert outcome({0: 100, 1: 105}, 10) == (True, 105, 5)

    def test_missing_replica(self):
        assert outcome({0: 100}, 10) == (False, 110)

    def test_late_arrival_is_missing(self):
        assert outcome({0: 100, 1: 115}, 10) == (False, 110)

    def test_window_opens_at_the_first_arrival(self):
        assert outcome({0: 115, 1: 100}, 10) == (False, 110)

    def test_boundary_is_inclusive(self):
        assert outcome({0: 100, 1: 110}, 10) == (True, 110, 10)

    def test_no_arrivals(self):
        # the window opens at the release, time 0
        assert outcome({}, 10) == (False, 10)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError):
            Loose(0)

    def test_matches_the_frozen_rendezvous(self):
        # every arrival pattern classifies as the scalar rendezvous does
        rng = Rng(17)
        rounds = [{rid: 100 + rng.randrange(40) for rid in range(3) if rng.randrange(4)} for _ in range(500)]
        arrival = np.array([[r.get(i, 0) for i in range(3)] for r in rounds])
        emitted = np.array([[i in r for i in range(3)] for r in rounds])
        complete, skew, deadline = rendezvous_rounds(arrival, emitted, 20)
        for j, r in enumerate(rounds):
            frozen = rendezvous([0, 1, 2], list(r.items()), 20)
            if isinstance(frozen, Complete):
                assert complete[j] and deadline[j] == frozen.present[-1][1]
                assert skew[j] == frozen.skew_ns
            else:
                assert not complete[j]
                assert deadline[j] == (min(r.values()) if r else 0) + 20


def compare(a, b):
    """`compare_bus_traces` of two batches, each a list of rounds' parameter
    ids, as a list."""
    return compare_bus_traces(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)).tolist()


def _flips(draw, arch):
    """0-3 weight-bit flips on any layer of a net of widths `arch`; after
    some, one of them again, which cancels it."""
    flips = [(layer, draw(st.integers(0, arch[layer] * arch[layer + 1] - 1)), draw(st.integers(0, 15)))
             for layer in draw(st.lists(st.integers(0, len(arch) - 2), max_size=3))]
    if flips and draw(st.booleans()):
        flips.append(draw(st.sampled_from(flips)))
    return flips


class TestCompareBusTraces:
    def test_identical_traces_match(self):
        assert compare([(11, 22)], [(11, 22)]) == [-1]

    def test_each_layer_diverges_at_its_fetch(self):
        assert compare([(11, 22, 33)], [(99, 22, 33)]) == [0]
        assert compare([(11, 22, 33)], [(11, 99, 33)]) == [4]
        assert compare([(11, 22, 33)], [(11, 22, 99)]) == [8]

    def test_first_divergence_wins(self):
        assert compare([(11, 22, 33)], [(11, 88, 99)]) == [4]

    def test_rows_are_compared_independently(self):
        assert compare([(11, 22), (11, 22), (11, 22)], [(11, 22), (11, 99), (0, 22)]) == [-1, 4, 0]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_event_by_event_compare_on_real_networks(self, data):
        # Two replicas of one network, each with its own weight-bit flips, on
        # one frame: the frozen runner's event-by-event compare of their full
        # traces diverges where the parameter ids say, always at a fetch. The
        # ids number the clean net and both flipped ones together, as a run's
        # flip sets are.
        arch = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
        seed = data.draw(st.integers(0, 2**64 - 1))
        ws = gen_weights(seed, arch)
        flips_a, flips_b = _flips(data.draw, arch), _flips(data.draw, arch)
        if data.draw(st.booleans()):
            flips_b = flips_a + flips_b + flips_b  # b's own flips cancel: the weights of a
        a, b = flip_weight_bits(ws, flips_a), flip_weight_bits(ws, flips_b)
        x = oracle_tensor(gen_frame(seed, 0, (arch[0],))[0])
        ref = _compare_bus_traces(_infer(oracle_network(a), x, ENGINE)[2],
                                  _infer(oracle_network(b), x, ENGINE)[2], 0)
        networks = [ws, a, b]
        [index] = compare([layer_ids(a, networks)], [layer_ids(b, networks)])
        if ref is None:
            assert index == -1
        else:
            assert tuple(ref) == (index, "payload digest mismatch") and index % 4 == 0


class TestPtp:
    def test_symmetric_case(self):
        assert estimate_ptp_offset((0, 10, 20, 30)) == (0, 10)

    def test_offset_two(self):
        assert estimate_ptp_offset((0, 12, 20, 28)) == (2, 10)

    def test_negative_path_delay_rejected(self):
        # slave turnaround longer than the whole master round trip
        with pytest.raises(ProtocolError):
            estimate_ptp_offset((0, -100, 300, 100))

    def test_inconsistent_timestamps_rejected(self):
        with pytest.raises(ProtocolError):
            estimate_ptp_offset((0, 10, 5, 30))  # t3 < t2
        with pytest.raises(ProtocolError):
            estimate_ptp_offset((100, 110, 120, 90))  # t4 < t1

    def test_halving_rounds_toward_zero(self):
        # fwd - ret odd and negative: -1/2 -> 0, not -1
        offset, delay = estimate_ptp_offset((0, 5, 5, 11))
        assert offset == 0  # (5 - 6) / 2 toward zero
        assert delay == 5  # (5 + 6) / 2 toward zero

    def test_simulated_exchange_recovers_offset_exactly(self):
        for offset in (-1_000_000, -12_345, -1, 0, 1, 999, 1_000_000):
            x = simulate_ptp_exchange(5_000, offset, 800, 800, slave_turnaround_ns=50)
            assert estimate_ptp_offset(x) == (offset, 800)

    def test_asymmetry_error_is_half_the_asymmetry(self):
        for asym in (-400, -2, 2, 100, 400):  # even values: a/2 is exact
            x = simulate_ptp_exchange(0, 500, 800 + asym, 800, slave_turnaround_ns=10)
            offset, _ = estimate_ptp_offset(x)
            assert offset - 500 == asym // 2
