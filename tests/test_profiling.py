import io
import json
import math
import statistics
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockstepsim.profiling import (
    detect_outliers,
    histogram,
    ks_statistic,
    stats,
    value_table,
    write_histogram_csv,
)
from oracles import Rng, ks_reference, scalar_detect_outliers, scalar_histogram, stats_reference

samples_strategy = st.lists(st.integers(0, 10**9), min_size=1, max_size=400)


def assert_close(a, b, rel=1e-9):
    if a is None or b is None:
        assert a is None and b is None
        return
    if b == 0:
        assert abs(a) <= rel
    else:
        assert abs(a - b) <= rel * max(abs(a), abs(b))


def skewness_error_bound(xs):
    """A first-order bound on the relative error of a float skewness of the
    integers `xs`, such as scipy's, exact; inf at zero skewness. A float sum
    of the cubed deviations d errs by up to n * eps * sum |d|**3, and an
    error of up to n * eps * max |x| in the mean moves it by 3 * that *
    sum d**2 (sum d is 0)."""
    n = len(xs)
    mean = Fraction(sum(xs), n)
    devs = [x - mean for x in xs]
    m3 = sum(d**3 for d in devs)
    if not m3:
        return math.inf
    err = sum(abs(d) ** 3 for d in devs) + 3 * max(xs) * sum(d * d for d in devs)
    return float(n * sys.float_info.epsilon * err / abs(m3))


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
    @example(xs=[0, 0, 999927, 999968])  # scipy keeps 8 digits of a skewness near 0
    @settings(max_examples=100, deadline=None)
    def test_scipy_cross_check(self, xs):
        s = stats(xs)
        if s["excess_kurtosis"] is None:
            return
        skew = float(scipy.stats.skew(xs, bias=True))
        if skewness_error_bound(xs) < 1e-9:
            assert_close(s["skewness"], skew, rel=1e-8)
        else:  # scipy is ill conditioned here: ours is no further from the exact value
            exact = stats_reference(xs)["skewness"]
            assert abs(s["skewness"] - exact) <= abs(skew - exact)
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
        assert detect_outliers([7, 7, 7, 7])["indices"].tolist() == []

    def test_hand_traced_example(self):
        xs = [8, 9, 10, 11, 12, 13, 14, 100]
        rep = detect_outliers(xs)
        assert rep["indices"].dtype == np.int64 and rep["scores"].dtype == np.float64
        assert rep["indices"].tolist() == [7]
        assert rep["scores"][0] == pytest.approx(29.846625, abs=1e-9)

    def test_all_within_threshold_empty(self):
        assert detect_outliers([10, 11, 12, 13, 14])["indices"].tolist() == []

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
        assert rep["indices"].tolist() == [20]


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

    @pytest.mark.parametrize("a, b", [([math.nan, 1, 2], [1, 2]), ([1, 2], [3, math.nan]), ([math.nan], [math.nan])])
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(a, b)

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


def ks_merge_d(a, b):
    """D by the merge loop `ks_statistic` ran before it ranked by `np.searchsorted`."""
    xa, xb = sorted(a), sorted(b)
    na, nb = len(xa), len(xb)
    i = j = 0
    best_num = 0
    while i < na or j < nb:
        if j >= nb or (i < na and xa[i] <= xb[j]):
            v = xa[i]
        else:
            v = xb[j]
        while i < na and xa[i] == v:
            i += 1
        while j < nb and xb[j] == v:
            j += 1
        gap = abs(i * nb - j * na)
        if gap > best_num:
            best_num = gap
    return best_num / (na * nb)


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
few_values = st.lists(st.integers(0, 6), min_size=1, max_size=40)  # ties
int64_values = st.lists(st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])
                        | st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=40)
float_values = st.lists(st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0, 5e-324, 2.0**63]),
                        min_size=1, max_size=40)
wide_values = st.lists(st.integers(-(1 << 70), 1 << 70) | st.sampled_from([INT64_MAX + 1, 1 << 64, 0.5, -0.0]),
                       min_size=1, max_size=40)


class TestKsEqualsTheMergeLoop:
    @given(few_values, few_values)
    @settings(max_examples=200, deadline=None)
    def test_ties(self, a, b):
        assert ks_statistic(a, b)["d"] == ks_merge_d(a, b)

    @given(few_values, few_values)
    @settings(max_examples=50, deadline=None)
    def test_disjoint_sets(self, a, b):
        b = [x + 7 for x in b]
        assert ks_statistic(a, b)["d"] == ks_merge_d(a, b) == 1.0

    @given(st.integers(INT64_MIN, INT64_MAX), int64_values)
    @settings(max_examples=50, deadline=None)
    def test_single_values(self, x, b):
        assert ks_statistic([x], b)["d"] == ks_merge_d([x], b)
        assert ks_statistic([x], [x])["d"] == 0.0

    @given(int64_values, int64_values)
    @settings(max_examples=200, deadline=None)
    def test_int64_extremes_as_lists_and_arrays(self, a, b):
        want = ks_merge_d(a, b)
        assert ks_statistic(a, b)["d"] == want
        assert ks_statistic(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))["d"] == want

    @given(float_values, float_values | int64_values)
    @settings(max_examples=200, deadline=None)
    def test_floats(self, a, b):
        assert ks_statistic(a, b)["d"] == ks_merge_d(a, b)

    @given(wide_values, wide_values | int64_values)
    @settings(max_examples=200, deadline=None)
    def test_ints_beyond_int64_give_the_loop_d_or_a_value_error(self, a, b):
        try:
            d = ks_statistic(a, b)["d"]
        except ValueError:
            return
        assert d == ks_merge_d(a, b)

    @pytest.mark.parametrize("a, b", [([math.nan, 1 << 64], [1]), ([1 << 64], [2.0, math.nan])])
    def test_nan_beside_ints_beyond_int64_is_a_value_error(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(a, b)

    def test_sample_count_product_past_int64_is_refused(self):
        many = np.broadcast_to(np.int64(0), (1 << 32,))  # no memory behind it
        with pytest.raises(ValueError, match="2\\*\\*63"):
            ks_statistic(many, many)

    def test_arrays_are_left_unsorted(self):
        a, b = np.array([3, 1, 2], dtype=np.int64), np.array([9, 0], dtype=np.int64)
        ks_statistic(a, b)
        assert a.tolist() == [3, 1, 2] and b.tolist() == [9, 0]


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


def listed(outliers):
    """`detect_outliers`' value with its index and score arrays read as lists."""
    return {**outliers, "indices": outliers["indices"].tolist(), "scores": outliers["scores"].tolist()}


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


def repeated(pool, repeats, rnd):
    """Each value of `pool` `repeats` times over, shuffled."""
    xs = [v for v, r in zip(pool, repeats) for _ in range(r)]
    rnd.shuffle(xs)
    return xs


def mad_of(xs):
    med = statistics.median(xs)
    return statistics.median(abs(x - med) for x in xs)


# 3 to 6 values, each repeated, and a nonzero MAD: the median and the MAD
# fall inside a run of equal values or between two runs, at odd and even n
repeated_runs = st.builds(repeated, st.lists(st.integers(0, 10**6), min_size=3, max_size=6, unique=True),
                          st.lists(st.integers(2, 30), min_size=6, max_size=6), st.randoms()).filter(mad_of)

# near 10^9 ns, spread wide, constant (zero width), mostly one value
# (zero MAD, so the mean deviation is the denominator), and a few repeated
# values
report_samples = st.one_of(
    st.lists(st.integers(10**9 - 2_000, 10**9 + 2_000), min_size=3, max_size=300),
    st.lists(st.integers(0, 2 * 10**9), min_size=3, max_size=300),
    st.builds(lambda v, n: [v] * n, st.integers(0, 10**9), st.integers(3, 50)),
    st.builds(lambda v, n, rest: [v] * n + rest, st.integers(0, 10**6), st.integers(20, 60),
              st.lists(st.integers(0, 10**6), min_size=1, max_size=10)),
    repeated_runs,
)


class TestVectorizedMatchesScalar:
    @given(report_samples, st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_histogram(self, xs, bin_count):
        assert bits(histogram(xs, bin_count)) == bits(scalar_histogram(xs, bin_count))

    @given(report_samples, st.sampled_from([0.0, 1.0, 3.5, 10.0]))
    @settings(max_examples=300, deadline=None)
    def test_outliers(self, xs, threshold):
        assert bits(listed(detect_outliers(xs, threshold))) == bits(scalar_detect_outliers(xs, threshold))

    @given(repeated_runs, st.integers(1, 64), st.sampled_from([0.0, 1.0, 3.5, 10.0]))
    @settings(max_examples=300, deadline=None)
    def test_repeated_values_read_from_their_table(self, xs, bin_count, threshold):
        table = value_table(xs)
        got, want = stats(xs, table), stats_reference(xs)
        # the reference squares m2 by `**`, which may round to one ulp off
        # m2 * m2; then m4 / m2**2 moves by an ulp or two before the - 3
        for key in ("excess_kurtosis", "bimodality"):
            a, b = got.pop(key), want.pop(key)
            assert (a is None) == (b is None) and (a is None or abs(a - b) <= 4 * sys.float_info.epsilon * (abs(b) + 3))
        assert bits(got) == bits(want)
        assert bits(listed(detect_outliers(xs, threshold, table))) == bits(scalar_detect_outliers(xs, threshold))
        assert bits(histogram(xs, bin_count, table)) == bits(scalar_histogram(xs, bin_count))

    @pytest.mark.parametrize("xs, median, mad", [
        ([1] * 3 + [5] * 3, 3.0, 2.0),  # the median between two runs
        ([0] * 2 + [10] * 3 + [12] * 2 + [20] * 3, 11.0, 5.0),  # and the MAD too
        ([0] * 2 + [10] * 3 + [12] * 2 + [20] * 4, 12, 8),  # odd n: both inside a run
        ([7] * 4 + [9] * 2 + [30] * 3, 9, 2),  # the median at a run's first sample
        ([3] * 2 + [7] * 3 + [9] * 2 + [30] * 2, 7, 2),  # both at a run's last sample
    ])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 3.5])
    def test_weighted_medians(self, xs, median, mad, threshold):
        assert (statistics.median(xs), mad_of(xs)) == (median, mad)
        for samples in (xs, xs[::-1], np.array(xs, dtype=np.int64)):
            got = detect_outliers(samples, threshold, value_table(samples))
            assert bits(listed(got)) == bits(scalar_detect_outliers(list(samples), threshold))

    @pytest.mark.parametrize("xs", [[INT64_MIN, 0, 0, INT64_MAX], [INT64_MIN, INT64_MIN + 1, -1, INT64_MAX] * 3])
    @pytest.mark.parametrize("bin_count", [1, 2, 7, 64])
    def test_histogram_spans_the_int64_range(self, xs, bin_count):
        assert bits(histogram(xs, bin_count)) == bits(scalar_histogram(xs, bin_count))

    def test_outlier_deviations_span_the_int64_range(self):
        # odd n, so the median is the int 0, and |INT64_MIN - 0| = 2**63 is past int64
        xs = [INT64_MIN, INT64_MIN, 0, 0, 0, INT64_MAX, 1]
        got = detect_outliers(xs, 3.5)
        assert bits(listed(got)) == bits(scalar_detect_outliers(xs, 3.5))
        assert got["indices"].tolist() == [0, 1, 5]

    @given(int64_values.filter(lambda xs: len(xs) >= 4), st.sampled_from([0.0, 1.0, 3.5, 10.0]))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.parametrize("odd", [False, True])
    def test_outliers_of_int64_extremes(self, odd, xs, threshold):
        xs = xs[:len(xs) - (len(xs) % 2 != odd)]
        want = bits(scalar_detect_outliers(xs, threshold))
        assert bits(listed(detect_outliers(xs, threshold))) == want
        assert bits(listed(detect_outliers(xs, threshold, value_table(xs)))) == want

    def test_zero_mad_takes_the_mean_deviation(self):
        xs = [5] * 20 + [500, 6]
        assert statistics.median([abs(x - 5) for x in xs]) == 0
        assert bits(listed(detect_outliers(xs))) == bits(scalar_detect_outliers(xs))
        assert detect_outliers(xs)["indices"].tolist() == [20]

    def test_even_count_medians_are_floats(self):
        xs = [1, 2, 3, 10**9, 7, 8]
        assert bits(listed(detect_outliers(xs, 0.5))) == bits(scalar_detect_outliers(xs, 0.5))
        assert bits(histogram(xs, 7)) == bits(scalar_histogram(xs, 7))

    # Zero MAD, so the mean deviation is the denominator. An odd n gives
    # int64 deviations, an even n float ones (the mean of two equal middle
    # samples). NumPy sums them only while the largest times n is below
    # 2**52. The cases put that product, and the total, either side of
    # 2**52; the last one passes 2**53, where Python's order rounds
    # 2**53 + 1 down twice and a pairwise sum adds 1 + 1 first.
    @pytest.mark.parametrize("xs", [
        [9, 9, 9] + [9 + (2**52 - 1) // 5] * 2,
        [9, 9, 9] + [9 + 2**52 // 5 + 1] * 2,
        [3] * 501 + [3 + (2**52 - 1) // 1001] * 500,
        [3] * 501 + [3 + 2**52 // 1001 + 1] * 500,
        [0, 0, 2**52 - 1],
        [0, 0, 2**52 + 1],
        [4, 4, 4, 4, 4 + 2**51, 4 + 2**51 - 1],
        [4, 4, 4, 4, 4 + 2**51, 4 + 2**51 + 1],
        [7] * 502 + [7 + (2**52 - 1) // 1000] * 498,
        [7] * 502 + [7 + 2**52 // 1000 + 1] * 498,
        [0, 0, 0, 0, 0, 2**53, 1, 1],
    ])
    @pytest.mark.parametrize("threshold", [0.0, 1.0, 3.5])
    def test_zero_mad_mean_deviation_near_2_to_the_52(self, xs, threshold):
        med = statistics.median(xs)
        assert statistics.median(abs(x - med) for x in xs) == 0
        for samples in (xs, np.array(xs, dtype=np.int64)):
            assert bits(listed(detect_outliers(samples, threshold))) == bits(scalar_detect_outliers(xs, threshold))

    @pytest.mark.parametrize("xs", [
        [8, 9, 10, 11, 12, 13, 14, 100],
        [5] * 20 + [500, 6],
        [1, 2, 3, 10**9, 7, 8],
        [1000 + 37 * (i % 11) for i in range(99)] + [5_000, 123_457],
        # threshold * denom / 0.6745 rounds to above the top deviation here
        [447, 515, 693, 365, 776, 541, 331, 14172],
        [872, 920, 889, 6754480],
    ])
    def test_a_score_one_float_above_the_threshold_is_flagged(self, xs):
        top = max(scalar_detect_outliers(xs, 0.0)["scores"])
        # top is the first float above the first threshold and not above the second
        for threshold in (math.nextafter(top, 0.0), top):
            got = detect_outliers(xs, threshold)
            assert (top in got["scores"]) == (threshold < top)
            assert bits(listed(got)) == bits(scalar_detect_outliers(xs, threshold))


def test_report_statistics_of_1m_samples_stay_near_their_size():
    # the shape of a loose preset's host samples: a base value (so a zero
    # MAD), a second mode and 2% geometric spikes
    rng = np.random.default_rng(3)
    xs = np.full(1_000_000, 20_000, dtype=np.int64)
    xs[rng.random(len(xs)) < 0.15] += 60_000
    spike = rng.random(len(xs)) < 0.02
    xs[spike] += rng.geometric(1 / 400_000, spike.sum())
    assert np.median(np.abs(xs - np.median(xs))) == 0
    # the table: one sorted copy (it read 1.25x); the outliers: masks over
    # the samples (0.30x); the histogram: a bin index per distinct value
    table = value_table(xs)
    for fn, args, bound in ((value_table, (), 1.5), (detect_outliers, (3.5, table), 2.5),
                            (histogram, (50, table), 0.5)):
        fn(xs, *args)  # warm-up
        tracemalloc.start()
        try:
            fn(xs, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * xs.nbytes, (fn.__name__, peak / xs.nbytes)
    # binning the distinct values counts what binning every sample does
    lo, width = xs.min(), (xs.max() - xs.min()) / 50
    whole = np.bincount(np.minimum(((xs - lo) / width).astype(np.int64), 49), minlength=50)
    assert [b["count"] for b in histogram(xs, 50, table)] == whole.tolist()


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
        def outliers(samples, threshold):
            return listed(detect_outliers(samples, threshold))

        for fn, args in ((stats, ()), (outliers, (threshold,)), (histogram, (bin_count,))):
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
        assert detect_outliers(np.array(xs))["indices"].tolist() == []

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

    @pytest.mark.parametrize("samples", [[True, 5], [5, False, 7], (3, np.True_), [1 << 62, True]])
    def test_stats_refuses_a_bool_among_ints(self, samples):
        with pytest.raises(ValueError) as mixed:
            stats(samples)
        with pytest.raises(ValueError) as alone:
            stats(np.array([True, False]))
        assert str(mixed.value) == str(alone.value)

    def test_stats_takes_the_int64_limits(self):
        xs = [-(1 << 63), 0, (1 << 63) - 1, 5]
        assert bits(stats(xs)) == bits(stats(np.array(xs, dtype=np.int64)))
        assert stats(xs)["min"] == -(1 << 63)
        assert stats(xs)["p99"] == (1 << 63) - 1
