"""Turnaround-time statistics.

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
from dataclasses import dataclass

@dataclass(frozen=True)
class ProfileStats:
    n: int
    mean: float
    sample_std: float
    min_value: int
    max_value: int
    p50: int
    p95: int
    p99: int
    skewness: object        # float | None
    excess_kurtosis: object
    bimodality: object

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "sample_std": self.sample_std,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "bimodality": self.bimodality,
        }


def _nearest_rank(sorted_xs, num: int, den: int):
    # ceil(p*n) with p = num/den, all-integer
    rank = -(-num * len(sorted_xs) // den)
    return sorted_xs[max(rank, 1) - 1]


def stats(samples) -> ProfileStats:
    """Aggregate statistics over integer samples."""
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

    return ProfileStats(
        n=n,
        mean=mean,
        sample_std=sample_std,
        min_value=xs[0],
        max_value=xs[-1],
        p50=_nearest_rank(xs, 1, 2),
        p95=_nearest_rank(xs, 19, 20),
        p99=_nearest_rank(xs, 99, 100),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        bimodality=bimodality,
    )


@dataclass(frozen=True)
class OutlierReport:
    method: str
    threshold: float
    indices: tuple
    scores: tuple

    @property
    def count(self) -> int:
        return len(self.indices)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "threshold": self.threshold,
            "indices": list(self.indices),
            "scores": list(self.scores),
        }


def detect_outliers(samples, threshold: float = 3.5) -> OutlierReport:
    """MAD modified z-score outliers: score = 0.6745 |x - median| / MAD.

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
    if denom == 0:
        return OutlierReport("mad_modified_z", threshold, (), ())
    flagged = []
    for i, d in enumerate(devs):
        score = 0.6745 * d / denom
        if score > threshold:
            flagged.append((i, score))
    return OutlierReport(
        "mad_modified_z",
        threshold,
        tuple(i for i, _ in flagged),
        tuple(s for _, s in flagged),
    )


@dataclass(frozen=True)
class ComparisonReport:
    d: float
    critical_value: float
    alpha: float
    distinguishable: bool
    n_a: int
    n_b: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "critical_value": self.critical_value,
            "alpha": self.alpha,
            "distinguishable": self.distinguishable,
            "n_a": self.n_a,
            "n_b": self.n_b,
        }


def ks_statistic(a, b, alpha: float = 0.01) -> ComparisonReport:
    """Two-sample Kolmogorov-Smirnov comparison.

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
    return ComparisonReport(d, critical, alpha, d > critical, na, nb)


@dataclass(frozen=True)
class HistBin:
    lower_edge: float
    count: int


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
    return [HistBin(lo + i * width, counts[i]) for i in range(bin_count)]


def write_histogram_csv(bins, fp) -> None:
    fp.write("lower_edge_ns,count\n")
    for hb in bins:
        fp.write(f"{hb.lower_edge},{hb.count}\n")
