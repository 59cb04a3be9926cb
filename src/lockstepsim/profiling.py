"""Turnaround-time statistics.

Every function returns the JSON value that report.json stores, in plain
Python ints and floats: `stats`, `detect_outliers` and `ks_statistic`
return dicts with a fixed key order, and `histogram` returns a list of
`{"lower_edge_ns", "count"}` dicts. `stats`, `detect_outliers` and
`histogram` take a list of ints or an int64 array and give the same value
for both. `compare_runs` compares the turnaround samples of two
report.json dicts.

Moment statistics come from exact integer power sums, so repeated runs are
bit-identical and agree with a high-precision reference to float rounding.
The sums run over the distinct sample values and their counts from
`np.unique`, in Python ints (the fourth power of a 10^6 ns turnaround does
not fit in int64). The histogram and the outlier scores are NumPy array
operations that give the same bits as the scalar formulas below for
integer samples.
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
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .config import ALPHA_BOUNDS
from .errors import ConfigError


def stats(samples) -> dict:
    """Aggregate statistics over integer samples: n, mean, sample_std, min,
    max, p50, p95, p99, skewness, excess_kurtosis and bimodality. Samples
    that NumPy does not hold as signed integers (floats, bools alone, an
    int outside the int64 range) raise ValueError."""
    xs = np.asarray(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("stats needs at least one sample")
    if xs.dtype.kind != "i":
        raise ValueError(f"stats needs integer samples within the int64 range, got {xs.dtype} values")
    values, counts = (a.tolist() for a in np.unique(xs, return_counts=True))
    ends = list(accumulate(counts))  # samples up to and including each value

    def nearest_rank(num: int, den: int):
        # ceil(p*n) with p = num/den, all-integer
        rank = max(-(-num * n // den), 1)
        return values[bisect_left(ends, rank)]

    s1 = s2 = s3 = s4 = 0
    for x, c in zip(values, counts):
        x2 = x * x
        s1 += c * x
        s2 += c * x2
        s3 += c * x2 * x
        s4 += c * x2 * x2
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
        "min": values[0],
        "max": values[-1],
        "p50": nearest_rank(1, 2),
        "p95": nearest_rank(19, 20),
        "p99": nearest_rank(99, 100),
        "skewness": skewness,
        "excess_kurtosis": excess_kurtosis,
        "bimodality": bimodality,
    }


def _median(sorted_xs: np.ndarray):
    """`statistics.median` of a sorted array, as a Python number."""
    n = len(sorted_xs)
    if n % 2:
        return sorted_xs[n // 2].item()
    return (sorted_xs[n // 2 - 1].item() + sorted_xs[n // 2].item()) / 2


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
    devs = np.asarray(samples)
    devs = devs - _median(np.sort(devs))
    np.abs(devs, out=devs)
    denom = _median(np.sort(devs))
    if denom == 0:
        denom = sum(devs.tolist()) / n
    indices, scores = [], []
    if denom != 0:
        score = devs * 0.6745  # the bits of 0.6745 * d / denom
        score /= denom
        flagged = score > threshold
        indices = np.flatnonzero(flagged).tolist()
        scores = score[flagged].tolist()
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
    bin. Counts always sum to n. Empty input yields an empty histogram.
    Sample x lands in bin min(int((x - min) / width), bin_count - 1), and
    bin i's lower edge is min + i * width."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    xs = np.asarray(samples)
    if len(xs) == 0:
        return []
    lo = xs.min().item()
    width = (xs.max().item() - lo) / bin_count
    if width == 0:
        index = np.full(len(xs), bin_count - 1)
    else:
        index = (np.subtract(xs, lo) / width).astype(np.int64)
        np.minimum(index, bin_count - 1, out=index)
    counts = np.bincount(index, minlength=bin_count).tolist()
    edges = (lo + np.arange(bin_count) * width).tolist()
    return [{"lower_edge_ns": e, "count": c} for e, c in zip(edges, counts)]


def write_histogram_csv(bins, fp) -> None:
    fp.write("lower_edge_ns,count\n")
    for hb in bins:
        fp.write(f"{hb['lower_edge_ns']},{hb['count']}\n")


def compare_runs(report_a: dict, report_b: dict, alpha: float = 0.01) -> dict:
    """Kolmogorov-Smirnov comparison of two runs, per replica pairing, from
    two report.json dicts (`ExperimentReport.to_json_dict()` gives one).

    Refuses (ConfigError) an alpha outside `ALPHA_BOUNDS`, and a paired
    replica with fewer than 4 samples on either side.
    """
    lo, hi = ALPHA_BOUNDS
    if not lo <= alpha <= hi:  # NaN fails both comparisons
        raise ConfigError([f"alpha: must be within [{lo}, {hi}], got {alpha}"])
    reps_a = {r["replica_id"]: r for r in report_a.get("replicas", [])}
    reps_b = {r["replica_id"]: r for r in report_b.get("replicas", [])}
    common = sorted(set(reps_a) & set(reps_b))
    pairs = [rid for rid in common if reps_a[rid]["samples"] or reps_b[rid]["samples"]]
    if not pairs:
        raise ConfigError(["comparison refused: no replica with latency samples in both runs"])
    rows = []
    for rid in pairs:
        xa = reps_a[rid]["samples"]
        xb = reps_b[rid]["samples"]
        if len(xa) < 4 or len(xb) < 4:
            raise ConfigError([
                f"comparison refused: replica {rid} has {len(xa)} vs {len(xb)} samples; "
                "need at least 4 on each side"
            ])
        rows.append(
            {
                "replica_id": rid,
                "ks": ks_statistic(xa, xb, alpha),
                "a": _stats_summary(reps_a[rid]),
                "b": _stats_summary(reps_b[rid]),
            }
        )
    return {
        "alpha": alpha,
        "replicas": rows,
        "any_distinguishable": any(r["ks"]["distinguishable"] for r in rows),
    }


def _stats_summary(rep_entry) -> dict:
    st = rep_entry.get("stats") or {}
    out = rep_entry.get("outliers") or {}
    return {
        "n": st.get("n", 0),
        "mean": st.get("mean"),
        "p99": st.get("p99"),
        "excess_kurtosis": st.get("excess_kurtosis"),
        "outlier_count": len(out.get("indices", [])),
    }


def render_comparison_table(comparison: dict) -> str:
    """Side-by-side text table for a compare_runs result."""
    header = (
        f"{'replica':>7} {'D':>10} {'critical':>10} {'distinct':>8} "
        f"{'mean_a':>12} {'mean_b':>12} {'p99_a':>10} {'p99_b':>10} "
        f"{'kurt_a':>10} {'kurt_b':>10} {'outl_a':>6} {'outl_b':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in comparison["replicas"]:
        ks = row["ks"]
        a, b = row["a"], row["b"]

        def fmt(v, spec):
            return format(v, spec) if isinstance(v, (int, float)) else "-"

        lines.append(
            f"{row['replica_id']:>7} {ks['d']:>10.6f} {ks['critical_value']:>10.6f} "
            f"{str(ks['distinguishable']):>8} "
            f"{fmt(a['mean'], '12.1f')} {fmt(b['mean'], '12.1f')} "
            f"{fmt(a['p99'], '10')} {fmt(b['p99'], '10')} "
            f"{fmt(a['excess_kurtosis'], '10.3f')} {fmt(b['excess_kurtosis'], '10.3f')} "
            f"{a['outlier_count']:>6} {b['outlier_count']:>6}"
        )
    return "\n".join(lines)
