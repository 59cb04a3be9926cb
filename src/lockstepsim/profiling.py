"""Turnaround-time statistics.

Every function returns the JSON value that report.json stores: `stats`,
`detect_outliers` and `ks_statistic` return dicts with a fixed key order,
and `histogram` returns a list of `{"lower_edge_ns", "count"}` dicts.

Moment statistics come from exact integer power sums, so repeated runs are
bit-identical and agree with a high-precision reference to float rounding.
Definitions used throughout:

    mean             arithmetic mean
    sample_std       sqrt(sum (x - mean)^2 / (n - 1))
    percentiles      nearest-rank: sorted value at index ceil(p * n), 1-based
    skewness  g1     m3 / m2^1.5           (population central moments)
    excess kurtosis  g2 = m4 / m2^2 - 3
    bimodality  b    (g1^2 + 1) / (g2 + 3(n-1)^2 / ((n-2)(n-3)))

g1/g2/b need n >= 4 and nonzero variance; otherwise they are reported as
None (an explicit undefined marker), never NaN.
"""

from __future__ import annotations

import math
import statistics


def _nearest_rank(sorted_xs, num: int, den: int):
    # ceil(p*n) with p = num/den, all-integer
    rank = -(-num * len(sorted_xs) // den)
    return sorted_xs[max(rank, 1) - 1]


def stats(samples) -> dict:
    """Aggregate statistics over integer samples: n, mean, sample_std, min,
    max, p50, p95, p99, skewness, excess_kurtosis and bimodality."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("stats needs at least one sample")
    s1 = s2 = s3 = s4 = 0
    for x in samples:
        x = int(x)
        x2 = x * x
        s1 += x
        s2 += x2
        s3 += x2 * x
        s4 += x2 * x2
    # Central power sums scaled to stay in exact integers:
    #   A = n^2 * m2,  B = n^3 * m3,  C = n^4 * m4
    a = n * s2 - s1 * s1
    b = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
    c = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4

    mean = s1 / n
    sample_std = math.sqrt(a / (n * (n - 1))) if n > 1 else 0.0

    skewness = excess_kurtosis = bimodality = None
    if n >= 4 and a > 0:
        m2 = a / (n * n)
        m3 = b / n**3
        m4 = c / n**4
        skewness = m3 / m2**1.5
        excess_kurtosis = m4 / (m2 * m2) - 3.0
        correction = 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
        bimodality = (skewness * skewness + 1.0) / (excess_kurtosis + correction)

    return {
        "n": n,
        "mean": mean,
        "sample_std": sample_std,
        "min": xs[0],
        "max": xs[-1],
        "p50": _nearest_rank(xs, 1, 2),
        "p95": _nearest_rank(xs, 19, 20),
        "p99": _nearest_rank(xs, 99, 100),
        "skewness": skewness,
        "excess_kurtosis": excess_kurtosis,
        "bimodality": bimodality,
    }


def detect_outliers(samples, threshold: float = 3.5) -> dict:
    """MAD modified z-score outliers: score = 0.6745 |x - median| / MAD.
    Returns the method name, the threshold, and the indices and scores of
    the flagged samples in sample order.

    A zero MAD falls back to the mean absolute deviation; if that is also
    zero (constant data) there are no outliers. Robust by construction:
    the outliers being hunted cannot mask themselves.
    """
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


def ks_statistic(a, b, alpha: float = 0.01) -> dict:
    """Two-sample Kolmogorov-Smirnov comparison: d, critical_value, alpha,
    distinguishable (d > critical_value), n_a and n_b.

    D is the exact supremum ECDF gap (computed with integer cross products,
    no float accumulation); the critical value at `alpha` is
    c(alpha) * sqrt((n_a + n_b) / (n_a * n_b)) with
    c(alpha) = sqrt(-ln(alpha / 2) / 2).
    """
    xa, xb = sorted(a), sorted(b)
    na, nb = len(xa), len(xb)
    if na == 0 or nb == 0:
        raise ValueError("both sample sets must be nonempty")
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
    d = best_num / (na * nb)
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    critical = c * math.sqrt((na + nb) / (na * nb))
    return {"d": d, "critical_value": critical, "alpha": alpha,
            "distinguishable": d > critical, "n_a": na, "n_b": nb}


def histogram(samples, bin_count: int) -> list:
    """Equal-width bins over [min, max]; the max value lands in the last
    bin. Counts always sum to n. Empty input yields an empty histogram."""
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


def write_histogram_csv(bins, fp) -> None:
    fp.write("lower_edge_ns,count\n")
    for hb in bins:
        fp.write(f"{hb['lower_edge_ns']},{hb['count']}\n")
