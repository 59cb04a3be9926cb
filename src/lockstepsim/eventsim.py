"""Simulated time: clocks and latency jitter.

A clock domain turns compute cycles into nanoseconds with exact integer
arithmetic; a jitter model draws the host and feed overheads around each
inference from a named random stream, a chunk of rounds at once
(`sample_turnaround_overheads`). One sample takes its draws in a fixed
order (mode, then spike, then the spike's size when its mean exceeds 1), so
a stream replays identically whichever branches fire. The simulator keeps
no event queue: the experiment runner computes the event times of a chunk
of rounds as arrays, relative to each round's release (see `experiment`).

Time is integer nanoseconds since simulation start.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError
from .record import Record
from .rng import uniforms

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


def sample_turnaround_overheads(model: JitterModel, seed: int, start: int, count: int):
    """`count` overhead samples from the stream `seed` after its first
    `start` draws, as an int64 array, and the stream position after them.

    A sample is the base overhead, plus the second mode's offset if its
    first uniform falls below `mode2_prob`, plus a spike if its second
    falls below `spike_prob`: 1 ns when the spike's mean is 1, else a
    geometric variate of that mean drawn from a third uniform. The mode and
    spike uniforms are drawn as arrays; `math.log1p` runs on the spike
    samples only, since `np.log1p` can differ from it in the last bit."""
    if not count:
        return np.zeros(0, dtype=np.int64), start
    stride = 3 if model.spike_scale_ns > 1 else 2
    u = uniforms(seed, stride * count, start)
    if stride == 2:
        firsts = np.arange(0, 2 * count, 2)
        spike = u[1::2] < model.spike_prob
        tail = spike.astype(np.int64)
    else:
        spikes = np.append(u[1:] < model.spike_prob, False)
        firsts = _sample_starts(spikes, count)
        spike = spikes[firsts]
        tail = np.zeros(count, np.int64)
        at = np.flatnonzero(spike)
        tail[at] = _geometrics(u[firsts[at] + 2].tolist(), model.spike_scale_ns)
    total = model.base_overhead_ns + np.where(u[firsts] < model.mode2_prob, model.mode2_offset_ns, 0) + tail
    used = int(firsts[-1]) + 2 + int(stride == 3 and spike[-1])
    return total.astype(np.int64), start + used
