import io
import json
import math
import statistics

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.profiling import (
    detect_outliers,
    histogram,
    ks_statistic,
    stats,
    write_histogram_csv,
)
from lockstepsim.rng import Rng
from oracles import ks_reference, stats_reference

samples_strategy = st.lists(st.integers(0, 10**9), min_size=1, max_size=400)


def assert_close(a, b, rel=1e-9):
    if a is None or b is None:
        assert a is None and b is None
        return
    if b == 0:
        assert abs(a) <= rel
    else:
        assert abs(a - b) <= rel * max(abs(a), abs(b))


class TestStats:
    def test_nearest_rank_p50(self):
        assert stats([10, 20, 30, 40])["p50"] == 20

    def test_constant_samples(self):
        s = stats([5, 5, 5, 5])
        assert s["mean"] == 5
        assert s["sample_std"] == 0
        assert s["skewness"] is None
        assert s["excess_kurtosis"] is None
        assert s["bimodality"] is None

    def test_hand_computed_kurtosis_anchor(self):
        # m2 = 1600, m4 = 8,320,000 -> excess kurtosis exactly 0.25
        s = stats([0, 0, 0, 0, 100])
        assert s["excess_kurtosis"] == pytest.approx(0.25, abs=1e-12)

    def test_small_n_statistics_absent(self):
        s = stats([1, 2, 3])
        assert s["skewness"] is None and s["excess_kurtosis"] is None and s["bimodality"] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats([])

    def test_single_sample(self):
        s = stats([42])
        assert (s["mean"], s["sample_std"], s["min"], s["max"]) == (42.0, 0.0, 42, 42)
        assert s["p50"] == s["p95"] == s["p99"] == 42

    def test_percentile_ranks_exact_on_100(self):
        xs = list(range(1, 101))
        s = stats(xs)
        assert (s["p50"], s["p95"], s["p99"]) == (50, 95, 99)

    @given(samples_strategy)
    @settings(max_examples=150, deadline=None)
    def test_matches_high_precision_reference(self, xs):
        got = stats(xs)
        want = stats_reference(xs)
        assert list(got) == list(want)
        for key in ("n", "min", "max", "p50", "p95", "p99"):
            assert got[key] == want[key]
        for key in ("mean", "sample_std", "skewness", "excess_kurtosis", "bimodality"):
            assert_close(got[key], want[key])

    @given(st.lists(st.integers(0, 10**6), min_size=4, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_scipy_cross_check(self, xs):
        s = stats(xs)
        if s["excess_kurtosis"] is None:
            return
        assert_close(s["skewness"], float(scipy.stats.skew(xs, bias=True)), rel=1e-8)
        assert_close(
            s["excess_kurtosis"],
            float(scipy.stats.kurtosis(xs, fisher=True, bias=True)),
            rel=1e-8,
        )

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=100), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert stats(shuffled) == stats(xs)

    @given(st.lists(st.integers(0, 10**6), min_size=4, max_size=100), st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_translation_behavior(self, xs, c):
        base = stats(xs)
        moved = stats([x + c for x in xs])
        assert moved["mean"] == pytest.approx(base["mean"] + c, rel=1e-12)
        for key in ("p50", "p95", "p99"):
            assert moved[key] == base[key] + c
        assert_close(moved["sample_std"], base["sample_std"], rel=1e-7)
        assert_close(moved["skewness"], base["skewness"], rel=1e-6)
        assert_close(moved["excess_kurtosis"], base["excess_kurtosis"], rel=1e-6)

    @given(st.lists(st.integers(0, 10**6), min_size=4, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_bimodality_in_unit_interval(self, xs):
        b = stats(xs)["bimodality"]
        if b is not None:
            assert 0.0 < b <= 1.0

    def test_json_serialization_uses_null_markers(self):
        blob = json.loads(json.dumps(stats([5, 5, 5, 5])))
        assert blob["excess_kurtosis"] is None
        assert blob["n"] == 4


class TestOutliers:
    def test_constant_samples_no_outliers(self):
        assert detect_outliers([7, 7, 7, 7])["indices"] == []

    def test_hand_traced_example(self):
        xs = [8, 9, 10, 11, 12, 13, 14, 100]
        rep = detect_outliers(xs)
        assert rep["indices"] == [7]
        assert rep["scores"][0] == pytest.approx(29.846625, abs=1e-9)

    def test_all_within_threshold_empty(self):
        assert detect_outliers([10, 11, 12, 13, 14])["indices"] == []

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            detect_outliers([1, 2])

    def test_flagged_scores_exceed_threshold(self):
        rng = Rng(4)
        xs = [1000 + rng.randrange(50) for _ in range(200)] + [10_000, 25_000]
        rep = detect_outliers(xs)
        assert len(rep["indices"]) >= 2
        assert all(s > rep["threshold"] for s in rep["scores"])

    def test_mad_zero_falls_back_to_mean_deviation(self):
        # majority at one value: MAD is 0 but the mean deviation is not
        xs = [5] * 20 + [500]
        rep = detect_outliers(xs)
        assert rep["indices"] == [20]


class TestKs:
    def test_identical_samples_zero(self):
        rep = ks_statistic([1, 2, 3, 4], [1, 2, 3, 4])
        assert rep["d"] == 0.0
        assert not rep["distinguishable"]

    def test_disjoint_supports_one(self):
        rep = ks_statistic([1, 2, 3], [10, 11, 12])
        assert rep["d"] == 1.0

    def test_quarter_gap_example(self):
        rep = ks_statistic([1, 2, 3, 4], [1, 2, 3, 10])
        assert rep["d"] == 0.25

    def test_critical_value_formula(self):
        rep = ks_statistic([1] * 50, [2] * 100, alpha=0.01)
        c = math.sqrt(-math.log(0.005) / 2)
        assert rep["critical_value"] == pytest.approx(c * math.sqrt(150 / 5000), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1])

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=80),
        st.lists(st.integers(0, 50), min_size=1, max_size=80),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_reference(self, a, b):
        assert ks_statistic(a, b)["d"] == pytest.approx(ks_reference(a, b), abs=1e-12)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=60),
        st.lists(st.integers(0, 50), min_size=1, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert ks_statistic(a, b)["d"] == ks_statistic(b, a)["d"]

    @given(
        st.lists(st.integers(0, 1000), min_size=5, max_size=100),
        st.lists(st.integers(0, 1000), min_size=5, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_scipy_cross_check(self, a, b):
        want = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ks_statistic(a, b)["d"] == pytest.approx(float(want), abs=1e-9)


class TestHistogram:
    def test_even_split(self):
        bins = histogram([0, 1, 2, 3], 2)
        assert bins == [{"lower_edge_ns": 0, "count": 2}, {"lower_edge_ns": 1.5, "count": 2}]

    def test_single_sample_lands_in_one_bin(self):
        bins = histogram([42], 4)
        counts = [b["count"] for b in bins]
        assert sum(counts) == 1
        assert counts.count(0) == 3

    def test_max_value_in_last_bin(self):
        bins = histogram([0, 10], 5)
        assert bins[-1]["count"] == 1

    def test_empty_histogram(self):
        assert histogram([], 5) == []

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            histogram([1], 0)

    @given(st.lists(st.integers(0, 10**6), min_size=0, max_size=500), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_counts_always_sum_to_n(self, xs, bins):
        assert sum(b["count"] for b in histogram(xs, bins)) == len(xs)

    def test_csv_format(self):
        buf = io.StringIO()
        write_histogram_csv(histogram([0, 1, 2, 3], 2), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "lower_edge_ns,count"
        assert lines[1].endswith(",2")


# -- the vectorized report functions against frozen copies of the scalar code --


def scalar_histogram(samples, bin_count):
    """`profiling.histogram` as it was before it was vectorized."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    if not samples:
        return []
    lo = min(samples)
    hi = max(samples)
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for x in samples:
        if width == 0:
            idx = bin_count - 1
        else:
            idx = min(int((x - lo) / width), bin_count - 1)
        counts[idx] += 1
    return [{"lower_edge_ns": lo + i * width, "count": counts[i]} for i in range(bin_count)]


def scalar_detect_outliers(samples, threshold=3.5):
    """`profiling.detect_outliers` as it was before it was vectorized."""
    n = len(samples)
    if n < 3:
        raise ValueError("outlier detection needs at least 3 samples")
    med = statistics.median(samples)
    devs = [abs(x - med) for x in samples]
    denom = statistics.median(devs)
    if denom == 0:
        denom = sum(devs) / n
    indices, scores = [], []
    if denom != 0:
        for i, d in enumerate(devs):
            score = 0.6745 * d / denom
            if score > threshold:
                indices.append(i)
                scores.append(score)
    return {"method": "mad_modified_z", "threshold": threshold, "indices": indices, "scores": scores}


def bits(value):
    """`value` with every float replaced by its exact bits and every number
    tagged with its type, so that equal results are equal to the bit."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


# near 10^9 ns, spread wide, constant (zero width), and mostly one value
# (zero MAD, so the mean deviation is the denominator)
report_samples = st.one_of(
    st.lists(st.integers(10**9 - 2_000, 10**9 + 2_000), min_size=3, max_size=300),
    st.lists(st.integers(0, 2 * 10**9), min_size=3, max_size=300),
    st.builds(lambda v, n: [v] * n, st.integers(0, 10**9), st.integers(3, 50)),
    st.builds(lambda v, n, rest: [v] * n + rest, st.integers(0, 10**6), st.integers(20, 60),
              st.lists(st.integers(0, 10**6), min_size=1, max_size=10)),
)


class TestVectorizedMatchesScalar:
    @given(report_samples, st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_histogram(self, xs, bin_count):
        assert bits(histogram(xs, bin_count)) == bits(scalar_histogram(xs, bin_count))

    @given(report_samples, st.sampled_from([0.0, 1.0, 3.5, 10.0]))
    @settings(max_examples=300, deadline=None)
    def test_outliers(self, xs, threshold):
        assert bits(detect_outliers(xs, threshold)) == bits(scalar_detect_outliers(xs, threshold))

    def test_zero_mad_takes_the_mean_deviation(self):
        xs = [5] * 20 + [500, 6]
        assert statistics.median([abs(x - 5) for x in xs]) == 0
        assert bits(detect_outliers(xs)) == bits(scalar_detect_outliers(xs))
        assert detect_outliers(xs)["indices"] == [20]

    def test_even_count_medians_are_floats(self):
        xs = [1, 2, 3, 10**9, 7, 8]
        assert bits(detect_outliers(xs, 0.5)) == bits(scalar_detect_outliers(xs, 0.5))
        assert bits(histogram(xs, 7)) == bits(scalar_histogram(xs, 7))


# -- a list and its int64 array give the same plain-Python report values --

# heavy duplication (a few distinct values among many samples) and a single
# distinct value
duplicated_samples = st.one_of(
    st.builds(lambda pool, picks: [pool[i % len(pool)] for i in picks],
              st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=5),
              st.lists(st.integers(0, 4), min_size=3, max_size=400)),
    st.builds(lambda v, n: [v] * n, st.integers(-10**12, 10**12), st.integers(3, 100)),
    report_samples,
)


def plain(value):
    """`value` unchanged, after checking that it holds only JSON types."""
    if isinstance(value, dict):
        assert all(type(k) is str for k in value)
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    assert value is None or type(value) in (int, float, str, bool), type(value)
    return value


class TestListAndArrayAgree:
    @given(duplicated_samples, st.integers(1, 64), st.sampled_from([0.0, 3.5]))
    @settings(max_examples=300, deadline=None)
    def test_equal_values_of_plain_types(self, xs, bin_count, threshold):
        array = np.array(xs, dtype=np.int64)
        for fn, args in ((stats, ()), (detect_outliers, (threshold,)), (histogram, (bin_count,))):
            from_list = plain(fn(xs, *args))
            assert bits(fn(array, *args)) == bits(from_list)
            json.dumps(from_list)
        assert list(array) == xs  # the functions leave their input alone

    @given(duplicated_samples)
    @settings(max_examples=150, deadline=None)
    def test_stats_of_an_array_matches_the_reference(self, xs):
        got, want = stats(np.array(xs, dtype=np.int64)), stats_reference(xs)
        assert list(got) == list(want)
        for key in ("n", "min", "max", "p50", "p95", "p99"):
            assert got[key] == want[key]
        for key in ("mean", "sample_std", "skewness", "excess_kurtosis", "bimodality"):
            assert_close(got[key], want[key])

    def test_single_distinct_value(self):
        xs = [7_000] * 40
        got = stats(np.array(xs, dtype=np.int64))
        assert bits(got) == bits(stats(xs))
        assert (got["min"], got["p99"], got["skewness"]) == (7_000, 7_000, None)
        assert histogram(np.array(xs), 3)[-1] == {"lower_edge_ns": 7_000.0, "count": 40}
        assert detect_outliers(np.array(xs))["indices"] == []

    def test_empty_array(self):
        assert histogram(np.zeros(0, dtype=np.int64), 4) == []
        with pytest.raises(ValueError):
            stats(np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("samples", [
        [1 << 63], [-(1 << 63) - 1], [5, 1 << 64], [True, False, True], [1.5, 2.0],
        np.array([True, False]), np.array([1.0, 2.0]), np.array([1 << 63], dtype=np.uint64),
    ])
    def test_stats_refuses_samples_outside_int64(self, samples):
        with pytest.raises(ValueError, match="int64"):
            stats(samples)

    def test_stats_takes_the_int64_limits(self):
        xs = [-(1 << 63), 0, (1 << 63) - 1, 5]
        assert bits(stats(xs)) == bits(stats(np.array(xs, dtype=np.int64)))
        assert stats(xs)["min"] == -(1 << 63)
        assert stats(xs)["p99"] == (1 << 63) - 1
