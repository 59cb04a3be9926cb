"""Simulated time: clocks and latency jitter.

A clock domain turns compute cycles into nanoseconds with exact integer
arithmetic; a jitter model draws the host and feed overheads around each
inference from a named random stream. The simulator keeps no event
queue: the experiment runner computes each round's event times directly
from these (see `experiment`).

Time is integer nanoseconds since simulation start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, SimulationError
from .rng import Rng

_NS_PER_S = 10**9
_PPM = 10**6


@dataclass(frozen=True)
class ClockDomain:
    """A clock with nominal frequency and a fixed drift in parts per million."""

    id: str
    freq_hz: int
    drift_ppm: int = 0

    def __post_init__(self):
        if self.freq_hz <= 0:
            raise ConfigError(f"clock {self.id!r}: freq_hz must be positive")
        if _PPM + self.drift_ppm <= 0:
            raise ConfigError(f"clock {self.id!r}: effective frequency must stay positive")


def cycles_to_time(cycles: int, clock: ClockDomain) -> int:
    """Duration in ns of `cycles` on `clock`, rounded to nearest (ties away
    from zero). Exact integer arithmetic: no float in the path."""
    if cycles < 0:
        raise SimulationError("negative cycle count")
    num = cycles * _NS_PER_S * _PPM
    den = clock.freq_hz * (_PPM + clock.drift_ppm)
    return (2 * num + den) // (2 * den)


@dataclass(frozen=True)
class JitterModel:
    """Parametric turnaround overhead: a base cost, an optional second mode
    and a geometric-tailed spike process for outliers."""

    base_overhead_ns: int = 0
    spike_prob: float = 0.0
    spike_scale_ns: int = 1
    mode2_offset_ns: int = 0
    mode2_prob: float = 0.0

    def __post_init__(self):
        if self.base_overhead_ns < 0:
            raise ConfigError("base_overhead_ns must be non-negative")
        if not (0.0 <= self.spike_prob <= 1.0):
            raise ConfigError("spike_prob must be within [0, 1]")
        if self.spike_scale_ns < 1:
            raise ConfigError("spike_scale_ns must be positive")
        if self.mode2_offset_ns < 0:
            raise ConfigError("mode2_offset_ns must be non-negative")
        if not (0.0 <= self.mode2_prob <= 1.0):
            raise ConfigError("mode2_prob must be within [0, 1]")



def _sample_geometric(mean_ns: int, rng: Rng) -> int:
    """Geometric variate on {1, 2, ...} with the given mean, by inversion."""
    if mean_ns <= 1:
        return 1
    p = 1.0 / mean_ns
    u = rng.uniform()
    k = math.ceil(math.log1p(-u) / math.log1p(-p))
    return max(1, k)


def sample_turnaround_overhead(model: JitterModel, rng: Rng) -> int:
    """One overhead sample. Draw order is fixed (mode, then spike) so a
    stream replays identically regardless of which branches fire."""
    total = model.base_overhead_ns
    if rng.uniform() < model.mode2_prob:
        total += model.mode2_offset_ns
    if rng.uniform() < model.spike_prob:
        total += _sample_geometric(model.spike_scale_ns, rng)
    return total
