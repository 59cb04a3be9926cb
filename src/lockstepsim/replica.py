"""Deterministic fixed-point inference channel.

Stands in for one redundant processing element: a small dense network
evaluated in saturating Q7.8 arithmetic with a cycle cost model and a
per-layer fetch/load/execute/store bus trace. Identical (weights, input,
engine) produce bit-identical outputs, cycle counts and traces, which is
what makes exact cross-replica comparison meaningful.

A network is a tuple of layers, each a (weights, bias) pair of read-only
int16 arrays of shapes (out, in) and (out,). Every layer but the last
applies ReLU. Arithmetic per layer (never wraps):

    acc[j]  = sum_i W[j,i] * x[i] + (bias[j] << 8)
    y[j]    = saturate_int16(round_half_to_even(acc[j] / 256))
    out[j]  = max(y[j], 0) for every layer but the last, else y[j]

`infer` runs a block of frames: float64 BLAS matmuls per layer, a slice of
frames at a time into one array, rounded in place, and the output digests of the whole block at
once. The float arithmetic is exact: a layer of width up to 1024 sums
products below 2**30 and a bias term below 2**23, so every partial sum is
an integer below 2**41 < 2**53, whatever the summation order, blocking or
thread count of the BLAS. Dividing by 256 is exact too, and `np.rint`
rounds half to even.

Bus trace: per layer L the channel fetches the parameters (event 4L),
loads the layer input (4L+1), executes (4L+2) and stores the result
(4L+3). The cycle of each event depends only on the layer shapes and the
engine, so every inference of one network on one engine shares one cycle
schedule, which ends at the compute cycles `infer` returns. Two replicas of
a round infer the same frame, so up to the first layer whose parameters
differ, every load, execute and store payload is equal too: the first
divergence is always that layer's fetch. A network's trace therefore comes
down to which of its layers hold the same parameters as another network's
(`layer_ids`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError
from .fixedpoint import RAW_MAX, RAW_MIN, SCALE, tensor_digests
from .record import Record
from .rng import MASK64, derive_seeds, draws

HEALTHY = "healthy"
FAILED = "failed"
SWITCHED_OFF = "switched_off"
HEALTH_STATES = (HEALTHY, FAILED, SWITCHED_OFF)

# Generated weights stay in [-2**12, 2**12] raw so a handful of MACs does
# not pin every output to the saturation rails.
WEIGHT_CLAMP = 1 << 12
# Synthetic input frames stay within +/- 1.0 real.
INPUT_CLAMP = 1 << 8

MAX_LAYER_WIDTH = 1024
# The frames of one BLAS product: OpenBLAS threads a larger one, and on a
# host with few cores its threads can stall a product for milliseconds.
MATMUL_ROWS = 256


class EngineConfig(Record, frozen=True):
    """Cycle cost model of one compute engine. Identical configs imply
    identical cycle counts for identical work."""

    cycles_per_mac: int = 1
    cycles_per_load: int = 1
    cycles_per_store: int = 1
    pipeline_startup_cycles: int = 64
    bounds = {"cycles_per_mac": (1, None), "cycles_per_load": (1, None), "cycles_per_store": (1, None),
              "pipeline_startup_cycles": (0, None)}


def gen_weights(seed: int, arch) -> tuple:
    """Deterministic synthetic network for the given layer widths, as a
    tuple of read-only (weights, bias) int16 array pairs. Raw weight and
    bias values are confined to [-2**12, 2**12].
    """
    arch = list(arch)
    if len(arch) < 2:
        raise ConfigError(f"arch needs at least 2 layer widths, got {arch}")
    if any(int(w) <= 0 for w in arch):
        raise ConfigError(f"arch widths must be positive: {arch}")
    if any(int(w) > MAX_LAYER_WIDTH for w in arch):
        raise ConfigError(f"arch widths must not exceed {MAX_LAYER_WIDTH}: {arch}")
    # one stream: each layer's weights, then its bias
    total = sum((in_w + 1) * out_w for in_w, out_w in zip(arch, arch[1:]))
    values = (draws([seed & MASK64], total)[0] % np.uint64(2 * WEIGHT_CLAMP + 1)).astype(np.int16) - WEIGHT_CLAMP
    values.flags.writeable = False  # and so is every view of it
    layers = []
    for in_w, out_w in zip(arch, arch[1:]):
        w, b, values = np.split(values, [out_w * in_w, (in_w + 1) * out_w])
        layers.append((w.reshape(out_w, in_w), b))
    return tuple(layers)


def layer_ids(layers, networks) -> list:
    """Per layer of `layers` (one of `networks`), the index of the first of `networks` with
    equal (weights, bias) there: ids are equal exactly where the parameters are."""
    return [next(j for j, other in enumerate(networks)
                 if all(a is b or np.array_equal(a, b) for a, b in zip(other[i], params)))
            for i, params in enumerate(layers)]


def gen_frames(seed: int, frame_ids, shape) -> np.ndarray:
    """Synthetic input frames, deterministic in (seed, frame id, shape): an
    int16 array of shape (len(frame_ids), *shape), one frame per id."""
    seeds = derive_seeds(seed, "frame.", frame_ids)
    values = draws(seeds, math.prod(shape))
    values %= np.uint64(2 * INPUT_CLAMP + 1)
    frames = values.astype(np.int16)
    frames -= INPUT_CLAMP
    return frames.reshape(len(seeds), *shape)


def gen_frame(seed: int, frame_id: int, shape) -> np.ndarray:
    """The one-frame block `gen_frames(seed, [frame_id], shape)`."""
    return gen_frames(seed, [frame_id], shape)


def _layer(x, w, b, relu):
    """The int16 outputs of the layer (w, b) on the int16 inputs `x`, one
    row per frame, one product per `MATMUL_ROWS` frames. Its accumulators
    are freed when it returns."""
    wt = w.T.astype(np.float64)
    acc = np.empty((len(x), len(w)))
    for i in range(0, len(x), MATMUL_ROWS):
        np.matmul(x[i:i + MATMUL_ROWS], wt, out=acc[i:i + MATMUL_ROWS])
    acc += b * 256.0
    acc /= SCALE
    np.rint(acc, out=acc)
    np.clip(acc, 0 if relu else RAW_MIN, RAW_MAX, out=acc)  # ReLU is max(y, 0)
    return acc.astype(np.int16)


def layer_costs(weights: np.ndarray) -> tuple:
    """(macs, loads, stores) for the layer with the (out, in) `weights`:
    loads cover activations, weights and biases read; stores cover results
    written."""
    out_w, in_w = weights.shape
    macs = out_w * in_w
    return macs, in_w + macs + out_w, out_w


def compute_cycles(layers, engine: EngineConfig) -> int:
    """The compute cycles of one inference of the network `layers`:
    pipeline_startup + sum over layers of macs*cycles_per_mac +
    loads*cycles_per_load + stores*cycles_per_store."""
    return engine.pipeline_startup_cycles + sum(
        macs * engine.cycles_per_mac + loads * engine.cycles_per_load + stores * engine.cycles_per_store
        for macs, loads, stores in (layer_costs(w) for w, _ in layers))


def infer(layers, frames: np.ndarray, engine: EngineConfig):
    """Run the network `layers` on a block of frames, an int16 array holding
    one frame per index of axis 0. Returns (int16 outputs, compute_cycles,
    uint64 output digests), with one output row and one digest per frame;
    every frame takes `compute_cycles(layers, engine)`.
    """
    shape = frames.shape[1:]
    in_w = layers[0][0].shape[1]
    if math.prod(shape) != in_w:
        raise DimensionError(f"input has {math.prod(shape)} elements, network expects {in_w}")
    x = frames.reshape(len(frames), -1)
    for i, (w, b) in enumerate(layers):
        x = _layer(x, w, b, i < len(layers) - 1)
    return x, compute_cycles(layers, engine), tensor_digests(x.shape[1:], x)
