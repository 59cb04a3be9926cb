"""Simulated time: clocks and latency jitter.

A clock domain turns compute cycles into nanoseconds with exact integer
arithmetic; a jitter model draws the host and feed overheads around each
inference, a chunk of rounds at once (`sample_turnaround_overheads`). Each
draw is addressed by its round r: the sample of round r reads draws 2r+1
(mode) and 2r+2 (spike) of its stream and, for a spike whose mean exceeds
1, draw r+1 of a second stream (its size). Draws meet probabilities as
integer mantissas. The simulator keeps no event queue: the experiment
runner computes the event times of a chunk of rounds as arrays, relative to
each round's release (see `experiment`).

Time is integer nanoseconds since simulation start.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError
from .record import Record
from .rng import below, draws_at

_NS_PER_S = 10**9
_PPM = 10**6


class ClockDomain(Record, frozen=True):
    """A clock with nominal frequency and a fixed drift in parts per million."""

    freq_hz: int
    drift_ppm: int = 0
    bounds = {"freq_hz": (1, None), "drift_ppm": (1 - _PPM, None)}  # the effective frequency stays positive


def cycles_to_time(cycles: int, clock: ClockDomain) -> int:
    """Duration in ns of `cycles` on `clock`, rounded to nearest (ties away
    from zero). Exact integer arithmetic: no float in the path."""
    if cycles < 0:
        raise SimulationError("negative cycle count")
    num = cycles * _NS_PER_S * _PPM
    den = clock.freq_hz * (_PPM + clock.drift_ppm)
    return (2 * num + den) // (2 * den)


class JitterModel(Record, frozen=True):
    """Parametric turnaround overhead: a base cost, an optional second mode
    and a geometric-tailed spike process for outliers."""

    base_overhead_ns: int = 0
    spike_prob: float = 0.0
    spike_scale_ns: int = 1
    mode2_offset_ns: int = 0
    mode2_prob: float = 0.0
    bounds = {"base_overhead_ns": (0, None), "spike_prob": (0.0, 1.0), "spike_scale_ns": (1, None),
              "mode2_offset_ns": (0, None), "mode2_prob": (0.0, 1.0)}

    @property
    def bound_ns(self) -> int:
        """An upper bound on one sample: a geometric spike of mean M > 1
        stays below 37 M + 1, since -log of a uniform stays below 53 ln 2."""
        return self.base_overhead_ns + self.mode2_offset_ns + 37 * self.spike_scale_ns + 1


def _geometrics(us: np.ndarray, mean_ns: int) -> np.ndarray:
    """Geometric variates on {1, 2, ...} with the given mean (> 1), one by
    inversion of each uniform of the float64 array `us`, as float64 (a
    mean near 2**62 can pass int64). Only the logs are Python's, since
    `np.log1p` can differ from `math.log1p` in the last bit; the divide and
    the rounding up give the same bits in NumPy as in Python."""
    logs = np.fromiter(map(math.log1p, (-us).tolist()), dtype=np.float64, count=len(us))
    return np.maximum(np.ceil(logs / math.log1p(-1.0 / mean_ns)), 1.0)


def sample_turnaround_overheads(model: JitterModel, seeds, first: int, count: int) -> np.ndarray:
    """The overhead samples of rounds first .. first+count-1 from the
    streams `seeds` = (stream, size stream), as an int64 array.

    The sample of round r is the base overhead, plus the second mode's
    offset if the uniform of draw 2r+1 of the stream falls below
    `mode2_prob`, plus a spike if that of draw 2r+2 falls below
    `spike_prob`: 1 ns when the spike's mean is 1, else a geometric variate
    of that mean from the uniform of draw r+1 of the size stream. So a
    round's sample depends on r alone, never on the rounds drawn before it
    or on how the rounds are cut into calls, and a model whose
    probabilities are both 0 draws nothing."""
    seed, size_seed = seeds
    base = np.int64(model.base_overhead_ns)
    evens = np.arange(2 * first, 2 * (first + count), 2, dtype=np.uint64)  # 2r for each round r
    if model.mode2_prob:
        out = np.where(below(seed, evens + np.uint64(1), model.mode2_prob), base + model.mode2_offset_ns, base)
    else:
        out = np.full(count, base)
    if model.spike_prob:
        at = np.flatnonzero(below(seed, evens + np.uint64(2), model.spike_prob))
        if model.spike_scale_ns == 1:
            out[at] += 1
        else:
            k = draws_at(size_seed, (at + (first + 1)).astype(np.uint64)) >> np.uint64(11)
            out[at] += _geometrics(k * (1.0 / (1 << 53)), model.spike_scale_ns).astype(np.int64)
    return out
