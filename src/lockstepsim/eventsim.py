"""Simulated time: clocks and latency jitter.

A clock domain turns compute cycles into nanoseconds with exact integer
arithmetic; a jitter model draws the host and feed overheads around each
inference from a named random stream, a chunk of rounds at once
(`sample_turnaround_overheads`). One sample takes its draws in a fixed order
(mode, then spike, then the spike's size when its mean exceeds 1), so a
stream replays identically whichever branches fire. Draws meet probabilities
as integer mantissas, and a chunk draws about what its samples use (all 3
per sample again in the rare case that falls short). The simulator keeps no
event queue: the experiment runner computes the event times of a chunk of
rounds as arrays, relative to each round's release (see `experiment`).

Time is integer nanoseconds since simulation start.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError
from .record import Record
from .rng import MASK64, draws

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


def _geometrics(us, mean_ns: int) -> list:
    """Geometric variates on {1, 2, ...} with the given mean (> 1), one by
    inversion of each uniform of the list `us`."""
    scale = math.log1p(-1.0 / mean_ns)
    return [max(1, math.ceil(math.log1p(-u) / scale)) for u in us]


def _geometric(u: float, mean_ns: int) -> int:
    """The geometric variate of one uniform `u` (`_geometrics`)."""
    return _geometrics([u], mean_ns)[0]


def _sample_starts(spikes: np.ndarray, count: int) -> np.ndarray:
    """The first draw of each of `count` samples. `spikes[j]` says whether a
    sample that starts at draw j spikes; a sample takes 3 draws if it spikes
    (and its mean exceeds 1), else 2, so sample i starts at draw 2 i plus the
    number of samples before it that spiked. The walk visits the spike
    positions in order as Python ints: from a sample's start j, the first
    one at or after j of the parity of j is where the next spiking sample
    starts."""
    after, i, j = [], 0, 0  # the samples after a spike; a sample and its start
    for q in np.flatnonzero(spikes).tolist():
        if q >= j and not (q - j) & 1:
            i += (q - j) // 2 + 1
            after.append(i)
            j = q + 3
    return 2 * np.arange(count) + np.cumsum(np.bincount(after, minlength=count)[:count])


def _mantissa_bound(p: float) -> int:
    """The t with k / 2**53 < p exactly when k < t, for k in [0, 2**53)."""
    return math.ceil(p * (1 << 53))  # p * 2**53 is exact


def sample_turnaround_overheads(model: JitterModel, seed: int, start: int, count: int):
    """`count` overhead samples from the stream `seed` after its first
    `start` draws, as an int64 array, and the stream position after them.

    A sample is the base overhead, plus the second mode's offset if its
    first uniform falls below `mode2_prob`, plus a spike if its second
    falls below `spike_prob`: 1 ns when the spike's mean is 1, else a
    geometric variate of that mean drawn from a third uniform. A uniform
    is k / 2**53 for a draw's top 53 bits k, so k is compared with
    `_mantissa_bound` of each probability; only the spikes' third draws
    become floats, for `math.log1p` (`np.log1p` can differ from it in the
    last bit). The first try draws 2 count, plus the mean spike count, 4 of
    its Poisson deviations and 4 (at most 3 count); in the rare case that
    the samples end past that, it draws all 3 count again."""
    if not count:
        return np.zeros(0, dtype=np.int64), start
    third, mean = model.spike_scale_ns > 1, count * model.spike_prob
    for size in (min((2 + third) * count, 2 * count + math.ceil(mean + 4 * math.sqrt(mean)) + 4), 3 * count):
        k = draws([seed & MASK64], size, start)[0] >> np.uint64(11)
        spikes = np.append(k[1:] < _mantissa_bound(model.spike_prob), False)  # the last flag starts no sample
        firsts = _sample_starts(spikes, count) if third else np.arange(0, size, 2)
        last = int(firsts[-1])
        if last < size - 1 and (used := last + 2 + int(third and spikes[last])) <= size:
            break
    tail = spikes[firsts].astype(np.int64)
    if third:
        at = np.flatnonzero(tail)
        tail[at] = _geometrics((k[firsts[at] + 2] * (1.0 / (1 << 53))).tolist(), model.spike_scale_ns)
    mode2 = np.where(k[firsts] < _mantissa_bound(model.mode2_prob), model.mode2_offset_ns, 0)
    return model.base_overhead_ns + mode2 + tail, start + used
