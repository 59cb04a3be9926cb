"""Turnaround-time statistics.

Every function returns the JSON value that report.json stores, in plain
Python ints and floats but for `detect_outliers`' int64 indices and
float64 scores: `stats`, `detect_outliers` and `ks_statistic` return
dicts with a fixed key order, and `histogram` returns a list of
`{"lower_edge_ns", "count"}` dicts. `stats`, `detect_outliers` and
`histogram` take a list of ints or an int64 array and give the same value
for both. `compare_runs` compares the turnaround samples of two
report.json dicts; `ks_statistic` ranks the values of both sets by
`np.searchsorted` in their sorted union.

Every statistic reads a value table (`value_table`, passed as `table` by a
caller that has it): the distinct sample values, ascending, and their
counts, from one `np.unique`. Moment statistics are exact integer power sums
over it, in Python ints (the fourth power of a 10^6 ns turnaround does not
fit in int64), so repeated runs are bit-identical and agree with a
high-precision reference to float rounding. The medians, the histogram and
the outlier scores give the same bits as the scalar formulas below.
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
from operator import mul

import numpy as np

from .errors import ConfigError

# The KS significance levels `compare_runs` accepts.
ALPHA_BOUNDS = (1e-9, 0.5)


def value_table(samples) -> tuple:
    """(values, counts): the distinct values of integer samples, ascending,
    and the count of each. Refuses (ValueError) no samples and samples NumPy
    does not hold as signed integers (floats, bools, ints past int64)."""
    xs = np.asarray(samples)
    if not isinstance(samples, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in samples):
        xs = xs.astype(bool)  # NumPy holds [True, 5] as int64; refuse it as a bool array
    if len(xs) == 0:
        raise ValueError("the statistics need at least one sample")
    if xs.dtype.kind != "i":
        raise ValueError(f"the statistics need integer samples within the int64 range, got {xs.dtype} values")
    return np.unique(xs, return_counts=True)


def stats(samples, table=None) -> dict:
    """Aggregate statistics over integer samples: n, mean, sample_std, min,
    max, p50, p95, p99, skewness, excess_kurtosis and bimodality. `table`
    is `value_table(samples)`, built here when not given."""
    values, counts = (a.tolist() for a in (value_table(samples) if table is None else table))
    ends = list(accumulate(counts))  # samples up to and including each value
    n = ends[-1]

    def nearest_rank(num: int, den: int):
        # ceil(p*n) with p = num/den, all-integer
        rank = max(-(-num * n // den), 1)
        return values[bisect_left(ends, rank)]

    cx = list(map(mul, counts, values))  # c x, then c x^2 and c x^3, one pass each
    cx2 = list(map(mul, cx, values))
    cx3 = list(map(mul, cx2, values))
    s1, s2, s3, s4 = sum(cx), sum(cx2), sum(cx3), sum(map(mul, cx3, values))
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


def _median(values: np.ndarray, counts: np.ndarray):
    """`statistics.median` of the samples of an ascending value table."""
    ends = np.cumsum(counts)
    n = ends[-1].item()
    upper = values[np.searchsorted(ends, n // 2, "right")].item()
    if n % 2:
        return upper
    return (values[np.searchsorted(ends, n // 2 - 1, "right")].item() + upper) / 2


def _distances(xs: np.ndarray, med):
    """|x - med| of int64 samples, exact: float64 about a float median, else
    uint64 (x - med modulo 2**64, negated below the median)."""
    if isinstance(med, float):
        return np.abs(xs - med)
    d = xs.astype(np.uint64) - np.uint64(med % 2**64)
    return np.where(xs < med, -d, d)


def detect_outliers(samples, threshold: float = 3.5, table=None) -> dict:
    """MAD modified z-score outliers: score = 0.6745 |x - median| / MAD.
    Returns the method name, the threshold, and the indices (int64) and
    scores (float64) of the flagged samples, as arrays in sample order.
    `table` is `value_table(samples)`, built here when not given.

    A zero MAD falls back to the mean absolute deviation; if that is also
    zero (constant data) there are no outliers. Robust by construction:
    the outliers being hunted cannot mask themselves.

    The MAD is a weighted median of the table's deviations d, which fall to
    the median and rise after it: two runs to merge. A score (d * 0.6745) /
    denom grows with d, so the flagged samples lie outside one run of values
    about the median. Integer samples deviate by multiples of 1/2: while the
    largest times n is below 2**52, the table's sum of count * d is exact.
    """
    n = len(samples)
    if n < 3:
        raise ValueError("outlier detection needs at least 3 samples")
    xs = np.asarray(samples)
    values, counts = value_table(xs) if table is None else table
    med = _median(values, counts)
    devs = _distances(values, med)
    merged = np.argsort(devs, kind="stable")  # timsort reverses the falling run and merges it
    denom = _median(devs[merged], counts[merged])
    if denom == 0:
        exact = devs.max().item() * n < 2**52
        denom = (np.dot(counts, devs).item() if exact else sum(_distances(xs, med).tolist())) / n
    indices, scores = np.zeros(0, dtype=np.int64), np.zeros(0)
    if denom != 0:
        flagged = devs * 0.6745 / denom > threshold  # the bits of 0.6745 * d / denom
        if flagged.any():
            kept = values[~flagged]  # one run of values about the median, as d falls, then rises
            out = (xs < kept[0]) | (xs > kept[-1]) if len(kept) else np.ones(n, dtype=bool)
            indices = np.flatnonzero(out)
            scores = _distances(xs[indices], med) * 0.6745 / denom
    return {"method": "mad_modified_z", "threshold": threshold, "indices": indices, "scores": scores}


def ks_statistic(a, b, alpha: float = 0.01) -> dict:
    """Two-sample Kolmogorov-Smirnov comparison: d, critical_value, alpha,
    distinguishable (d > critical_value), n_a and n_b.

    D is the exact supremum ECDF gap: the largest |i n_b - j n_a| over n_a n_b
    (below 2**63), with i and j the samples of a and of b up to each value.
    The critical value at `alpha` is c(alpha) * sqrt((n_a + n_b) / (n_a n_b))
    with c(alpha) = sqrt(-ln(alpha / 2) / 2).
    """
    xa, xb = np.asarray(a), np.asarray(b)
    na, nb = len(xa), len(xb)
    if na == 0 or nb == 0:
        raise ValueError("both sample sets must be nonempty")
    if na * nb >= 1 << 63:
        raise ValueError(f"n_a * n_b must stay below 2**63, got {na} * {nb}")
    if xa.dtype.kind != "i" or xb.dtype.kind != "i":
        # floats, ints beyond int64 or a mix: compare the values as Python objects, exactly
        xa, xb = np.array(a, dtype=object), np.array(b, dtype=object)
        if (xa != xa).any() or (xb != xb).any():  # NaN equals nothing: it has no rank
            raise ValueError("samples must not be NaN")
    xa, xb = np.sort(xa), np.sort(xb)
    values = np.sort(np.concatenate([xa, xb]), kind="stable")  # merges the two sorted runs
    values = values[np.concatenate([[True], values[1:] != values[:-1]])]
    gaps = np.searchsorted(xa, values, "right") * nb - np.searchsorted(xb, values, "right") * na
    d = int(np.abs(gaps).max()) / (na * nb)
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    critical = c * math.sqrt((na + nb) / (na * nb))
    return {"d": d, "critical_value": critical, "alpha": alpha,
            "distinguishable": d > critical, "n_a": na, "n_b": nb}


def histogram(samples, bin_count: int, table=None) -> list:
    """Equal-width bins over [min, max]; the max value lands in the last
    bin. Counts always sum to n. Empty input yields an empty histogram.
    Sample x lands in bin min(int((x - min) / width), bin_count - 1), and
    bin i's lower edge is min + i * width. `table` is `value_table(samples)`,
    built here when not given."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    if len(samples) == 0:
        return []
    values, counts = value_table(samples) if table is None else table
    lo = values[0].item()
    width = (values[-1].item() - lo) / bin_count
    binned = np.zeros(bin_count, dtype=np.int64)
    if width == 0:
        binned[-1] = len(samples)
    else:
        # x - min as uint64 is exact across the whole int64 range
        index = (np.subtract(values, values[0], dtype=np.uint64, casting="unsafe") / width).astype(np.int64)
        np.minimum(index, bin_count - 1, out=index)
        np.add.at(binned, index, counts)
    edges = (lo + np.arange(bin_count) * width).tolist()
    return [{"lower_edge_ns": e, "count": c} for e, c in zip(edges, binned.tolist())]


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
