import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim import eventsim
from lockstepsim.config import _PRESETS
from lockstepsim.errors import ConfigError
from lockstepsim.eventsim import (
    ClockDomain,
    JitterModel,
    _geometrics,
    _mantissa_bound,
    _sample_starts,
    cycles_to_time,
    sample_turnaround_overheads,
)
from lockstepsim.profiling import stats
from lockstepsim.rng import draws
from oracles import Rng, sample_turnaround_overhead

MHZ210 = ClockDomain(210_000_000)


def cycles_to_time_reference(cycles, freq_hz, drift_ppm):
    # round-half-away-from-zero over the exact rational duration
    q = Fraction(cycles * 10**9 * 10**6, freq_hz * (10**6 + drift_ppm))
    return math.floor(q + Fraction(1, 2))


class TestClockDomain:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ClockDomain(0)
        with pytest.raises(ConfigError):
            ClockDomain(1000, drift_ppm=-(10**6))

    def test_210_cycles_at_210mhz_is_one_microsecond(self):
        assert cycles_to_time(210, MHZ210) == 1000

    def test_zero_cycles(self):
        assert cycles_to_time(0, MHZ210) == 0

    def test_drift_example(self):
        clk = ClockDomain(1_000_000, drift_ppm=100)
        assert cycles_to_time(1000, clk) == 999_900
        assert cycles_to_time(1000, clk) == cycles_to_time_reference(1000, 1_000_000, 100)

    @given(
        st.integers(0, 10**9),
        st.integers(1, 2 * 10**9),
        st.integers(-999_999, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_oracle(self, cycles, freq, drift):
        clk = ClockDomain(freq, drift)
        assert cycles_to_time(cycles, clk) == cycles_to_time_reference(cycles, freq, drift)


class TestJitter:
    def test_validation(self):
        with pytest.raises(ConfigError):
            JitterModel(spike_prob=1.5)
        with pytest.raises(ConfigError):
            JitterModel(spike_scale_ns=0)
        with pytest.raises(ConfigError):
            JitterModel(base_overhead_ns=-1)

    def test_degenerate_model_is_constant(self):
        model = JitterModel(base_overhead_ns=123)
        rng = Rng(1)
        assert all(sample_turnaround_overhead(model, rng) == 123 for _ in range(500))

    def test_forced_spike_minimum_scale(self):
        model = JitterModel(base_overhead_ns=10, spike_prob=1.0, spike_scale_ns=1)
        rng = Rng(2)
        samples = [sample_turnaround_overhead(model, rng) for _ in range(500)]
        assert all(s >= 11 for s in samples)

    def test_mode2_always(self):
        model = JitterModel(base_overhead_ns=5, mode2_offset_ns=100, mode2_prob=1.0)
        rng = Rng(3)
        assert sample_turnaround_overhead(model, rng) == 105

    def test_draw_order_is_fixed(self):
        # identical streams replay identically even when branches never fire
        model = JitterModel(base_overhead_ns=1, spike_prob=0.5, spike_scale_ns=50,
                            mode2_offset_ns=9, mode2_prob=0.5)
        r1, r2 = Rng(77).child("s"), Rng(77).child("s")
        seq1 = [sample_turnaround_overhead(model, r1) for _ in range(200)]
        seq2 = [sample_turnaround_overhead(model, r2) for _ in range(200)]
        assert seq1 == seq2

    def test_rare_spikes_produce_heavy_tails(self):
        # golden Monte-Carlo figure, frozen: deterministic for this stream
        model = JitterModel(base_overhead_ns=1000, spike_prob=0.01, spike_scale_ns=20_000)
        rng = Rng(2024).child("jitter-mc")
        samples = [sample_turnaround_overhead(model, rng) for _ in range(50_000)]
        g2 = stats(samples)["excess_kurtosis"]
        assert g2 > 3
        assert g2 == GOLDEN_MC_KURTOSIS


# frozen from the first run of this exact stream; any change to the
# sampling path must be deliberate
GOLDEN_MC_KURTOSIS = 618.9104004246044


class TestArrayJitter:
    """`sample_turnaround_overheads` against n calls of the scalar sampler."""

    @pytest.mark.parametrize("scale", [1, 2, 5000])
    @pytest.mark.parametrize("spike_prob", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("mode2", [(0, 0.0), (700, 0.5)])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 60])
    def test_chunks_replay_the_scalar_stream(self, scale, spike_prob, mode2, chunk):
        model = JitterModel(base_overhead_ns=100, spike_prob=spike_prob, spike_scale_ns=scale,
                            mode2_offset_ns=mode2[0], mode2_prob=mode2[1])
        n, seed = 60, 4242
        rng = Rng(seed)
        expected = [sample_turnaround_overhead(model, rng) for _ in range(n)]
        got, pos = [], 0
        for first in range(0, n, chunk):
            values, pos = sample_turnaround_overheads(model, seed, pos, min(chunk, n - first))
            assert values.dtype == np.int64
            got += values.tolist()
        assert got == expected
        # both streams stand at the same position afterwards
        assert int(draws([seed], 1, start=pos)[0, 0]) == rng.next_u64()

    def test_empty_chunk_draws_nothing(self):
        values, pos = sample_turnaround_overheads(JitterModel(spike_prob=0.5, spike_scale_ns=9), 1, 17, 0)
        assert values.tolist() == [] and pos == 17

    def test_bound_holds_for_the_largest_uniform(self):
        # the spike's size grows as its uniform nears 1
        model = JitterModel(base_overhead_ns=10, spike_prob=1.0, spike_scale_ns=400_000,
                            mode2_offset_ns=5, mode2_prob=1.0)
        largest = 1.0 - 2.0 ** -53
        spike = math.ceil(math.log1p(-largest) / math.log1p(-1.0 / model.spike_scale_ns))
        assert 10 + 5 + spike < model.bound_ns


# k / 2**53 for a few mantissas k, and the floats either side of each
EDGE_PROBS = [0.0, 5e-324, 0.02, 1 / 3, 1.0] + [
    f(k / 2**53) for k in (1, 3, 12_345, 2**52, 2**53 - 1)
    for f in (lambda p: math.nextafter(p, 0.0), lambda p: p, lambda p: math.nextafter(p, 2.0))
]


class TestMantissaBound:
    """`_mantissa_bound(p)` decides `u < p` for the uniform u = k / 2**53 of
    a mantissa k exactly as the float compare does."""

    @pytest.mark.parametrize("p", EDGE_PROBS)
    def test_integer_compare_equals_the_float_compare(self, p):
        bound = _mantissa_bound(p)
        assert 0 <= bound <= 2**53
        for k in (bound - 1, bound, bound + 1):
            if 0 <= k < 2**53:
                assert (k < bound) == (k * (1.0 / (1 << 53)) < p), (p, k)

    @given(st.integers(0, 2**53 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_any_mantissa_and_probability(self, k, p):
        assert (k < _mantissa_bound(p)) == (k * (1.0 / (1 << 53)) < p)


def scalar_replay(model, seed, start, n):
    """`n` scalar samples of the stream `seed` after its first `start`
    draws, and the stream's next draw after them."""
    rng = Rng(seed)
    for _ in range(start):
        rng.next_u64()
    samples = [sample_turnaround_overhead(model, rng) for _ in range(n)]
    return samples, rng.next_u64()


def chunked(model, seed, counts, start=0):
    """The samples of one call per count of `counts`, each continuing from
    the position the previous call returned, and the next draw after them."""
    got, pos = [], start
    for count in counts:
        values, pos = sample_turnaround_overheads(model, seed, pos, count)
        assert values.dtype == np.int64
        got += values.tolist()
    return got, int(draws([seed], 1, start=pos)[0, 0])


@pytest.fixture
def draw_sizes(monkeypatch):
    """The number of draws of each `draws` call the sampler makes."""
    sizes = []

    def spy(seeds, count, start=0):
        sizes.append(count)
        return draws(seeds, count, start)

    monkeypatch.setattr(eventsim, "draws", spy)
    return sizes


class TestShortDraw:
    """The first try draws about what the samples take; the rare chunk that
    ends past it draws all 3 per sample again. Both match the scalar stream."""

    @pytest.mark.parametrize("name", ["host_jitter", "feed_jitter"])
    def test_preset_models_at_full_chunks(self, name, draw_sizes):
        model = JitterModel(**_PRESETS["gpu-duplex-loose"][name])
        seed, start = 987_654_321, 5
        assert chunked(model, seed, [4096] * 3, start) == scalar_replay(model, seed, start, 3 * 4096)
        assert all(2 * 4096 < size < 3 * 4096 for size in draw_sizes)

    # seed 44752: at the first density the first try of 1000 samples from
    # draw 0 holds them; at the next float one more of its uniforms spikes
    # and the samples end past it, so all 3000 draws are taken again
    @pytest.mark.parametrize("spike_prob, sizes", [
        (float.fromhex("0x1.88993e267b5a0p-5"), [2080]),
        (float.fromhex("0x1.88993e267b5a1p-5"), [2080, 3000]),
    ])
    def test_densities_either_side_of_a_short_first_try(self, spike_prob, sizes, draw_sizes):
        model = JitterModel(base_overhead_ns=7, spike_prob=spike_prob, spike_scale_ns=400_000,
                            mode2_offset_ns=30, mode2_prob=0.5)
        assert chunked(model, 44752, [1000]) == scalar_replay(model, 44752, 0, 1000)
        assert draw_sizes == sizes
        assert chunked(model, 44752, [1000, 4096, 3]) == scalar_replay(model, 44752, 0, 5099)

    @pytest.mark.parametrize("spikes, sizes", [(83, [2083]), (84, [2083, 3000])])
    def test_samples_ending_on_and_one_past_the_first_try(self, spikes, sizes, monkeypatch):
        # a made-up stream of mantissas in which the last `spikes` of 1000
        # samples spike: the first try holds 2083 draws, so 83 spikes end
        # on its last draw and 84 end one past it, on a spike's third draw
        model = JitterModel(base_overhead_ns=7, spike_prob=0.05, spike_scale_ns=400_000,
                            mode2_offset_ns=30, mode2_prob=0.5)
        rand = np.random.default_rng(spikes).integers(0, 2**53, 3000).tolist()
        stream = []
        for i in range(1000):
            spiking = i >= 1000 - spikes
            stream += [rand.pop(), 0 if spiking else 2**52] + ([rand.pop()] if spiking else [])
        stream = np.array(stream + rand[:3000 - len(stream)], dtype=np.uint64)
        got = []

        def fake_draws(seeds, count, start=0):
            got.append(count)
            return (stream[start:start + count] << np.uint64(11))[None, :]

        monkeypatch.setattr(eventsim, "draws", fake_draws)
        values, pos = sample_turnaround_overheads(model, 0, 0, 1000)
        uniforms = iter((stream * (1.0 / (1 << 53))).tolist())
        replay = SimpleNamespace(uniform=lambda: next(uniforms))  # the scalar sampler on the same stream
        assert values.tolist() == [sample_turnaround_overhead(model, replay) for _ in range(1000)]
        assert got == sizes and pos == 2000 + spikes

    @pytest.mark.parametrize("spike_prob, first", [(0.85, 2971), (0.9, 3000)])
    def test_dense_spikes_draw_at_most_three_per_sample(self, spike_prob, first, draw_sizes):
        # past about 0.87 the mean and its deviations pass 1000 spikes
        model = JitterModel(base_overhead_ns=7, spike_prob=spike_prob, spike_scale_ns=2)
        assert chunked(model, 31, [1000, 1000]) == scalar_replay(model, 31, 0, 2000)
        assert draw_sizes[0] == first


def parity_walk_starts(spikes, count):
    """The earlier `_sample_starts`: the next spike of each parity as an
    array, and one `np.arange` per run of plain samples."""
    n = len(spikes)
    next_spike = np.where(spikes, np.arange(n), n)
    for parity in (0, 1):
        column = next_spike[parity::2]
        column[:] = np.minimum.accumulate(column[::-1])[::-1]
    pieces = []
    j, left = 0, count
    while left:
        q = int(next_spike[j])
        run = min((q - j) // 2 + 1, left)
        pieces.append(np.arange(j, j + 2 * run, 2))
        left -= run
        j = q + 3
    return np.concatenate(pieces)


class TestSpikeWalk:
    """`_sample_starts` against the parity walk it replaced."""

    @given(st.integers(1, 5000), st.sampled_from([0.0, 0.003, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_starts_equal_the_parity_walk(self, count, density, seed):
        # as `sample_turnaround_overheads` builds it: one flag per draw of
        # `count` 3-draw samples, the last one False
        spikes = np.append(np.random.default_rng(seed).random(3 * count - 1) < density, False)
        got = _sample_starts(spikes, count)
        assert got.dtype == np.int64
        assert got.tolist() == parity_walk_starts(spikes, count).tolist()

    @given(st.integers(1, 3000), st.integers(1, 3000), st.sampled_from([0.0, 0.003, 0.5, 1.0]),
           st.sampled_from([1, 2, 400_000]), st.integers(0, 2**64 - 1), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_one_call_equals_two_from_the_returned_position(self, a, b, spike_prob, scale, seed, start):
        # scale 1 takes 2 draws per sample, a larger scale 3 per spike
        model = JitterModel(base_overhead_ns=7, spike_prob=spike_prob, spike_scale_ns=scale,
                            mode2_offset_ns=30, mode2_prob=0.5)
        whole, end = sample_turnaround_overheads(model, seed, start, a + b)
        first, pos = sample_turnaround_overheads(model, seed, start, a)
        second, pos = sample_turnaround_overheads(model, seed, pos, b)
        assert np.concatenate([first, second]).tolist() == whole.tolist()
        assert pos == end


def per_call_geometric(u, mean_ns):
    """The earlier `_geometric`: the log of the success probability taken
    once per variate."""
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-1.0 / mean_ns)))


# the uniforms `sample_turnaround_overheads` draws: k / 2**53, 0 <= k < 2**53
UNIFORMS = st.integers(0, 2**53 - 1).map(lambda k: k / 2**53)


@given(st.lists(UNIFORMS, max_size=40), st.integers(2, 2**62) | st.sampled_from([2, 3, 5_000, 400_000]))
@settings(max_examples=300, deadline=None)
def test_geometrics_equal_the_per_call_form(us, mean_ns):
    assert _geometrics(us, mean_ns) == [per_call_geometric(u, mean_ns) for u in us]
