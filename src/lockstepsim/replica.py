"""Deterministic fixed-point inference channel.

Stands in for one redundant processing element: a small dense network
evaluated in saturating Q7.8 arithmetic with a cycle cost model and a
per-layer fetch/load/execute/store bus trace. Identical (weights, input,
engine) produce bit-identical outputs, cycle counts and traces, which is
what makes exact cross-replica comparison meaningful.

Arithmetic per layer (never wraps; accumulators stay far below 2**63 for
layer widths up to 1024):

    acc[j]  = sum_i W[j,i] * x[i] + (bias[j] << 8)
    y[j]    = saturate_int16(round_half_to_even(acc[j] / 256))
    out[j]  = max(y[j], 0) for ReLU layers, else y[j]

`infer` runs one frame or a block of frames; a block takes one int64
matmul per layer for all of its frames, and its digests are computed for
the whole block at once.

Bus trace: per layer L the channel fetches the parameters (event 4L),
loads the layer input (4L+1), executes (4L+2) and stores the result
(4L+3). The cycle of each event depends only on the layer shapes and the
engine, so every inference of one network on one engine shares one cycle
schedule, which ends at the compute cycles `infer` returns. A trace
therefore carries only the payload digests, as a pair: the per-layer
parameter digests, computed once per `WeightSet`, and the frame's digest
row, the digests of the network input and of each layer's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError
from .fixedpoint import (
    FRAC_BITS,
    RAW_MAX,
    RAW_MIN,
    SCALE,
    FixedPointTensor,
    combine_digests,
    element_count,
    tensor_digest,
    tensor_digests,
)
from .rng import derive_seed, draws

RELU = "relu"
LINEAR = "none"
ACTIVATIONS = (RELU, LINEAR)

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


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: weights (out x in), bias (out), activation."""

    weights: FixedPointTensor
    bias: FixedPointTensor
    activation: str = LINEAR

    def __post_init__(self):
        if len(self.weights.shape) != 2:
            raise DimensionError(f"layer weights must be rank 2, got shape {self.weights.shape}")
        if len(self.bias.shape) != 1:
            raise DimensionError(f"layer bias must be rank 1, got shape {self.bias.shape}")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise DimensionError(
                f"bias width {self.bias.shape[0]} does not match output width {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise DimensionError(f"unknown activation {self.activation!r}")

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class WeightSet:
    """Ordered dense layers with compatible widths."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise DimensionError("a weight set needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if cur.in_width != prev.out_width:
                raise DimensionError(
                    f"layer input width {cur.in_width} does not match previous output {prev.out_width}"
                )

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    @cached_property
    def params_digests(self) -> tuple:
        """Per layer, the digest of the parameters its fetch reads."""
        return tuple(combine_digests(tensor_digest(layer.weights), tensor_digest(layer.bias))
                     for layer in self.layers)


@dataclass(frozen=True)
class EngineConfig:
    """Cycle cost model of one compute engine. Identical configs imply
    identical cycle counts for identical work."""

    cycles_per_mac: int = 1
    cycles_per_load: int = 1
    cycles_per_store: int = 1
    pipeline_startup_cycles: int = 0

    def __post_init__(self):
        for name in ("cycles_per_mac", "cycles_per_load", "cycles_per_store"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.pipeline_startup_cycles < 0:
            raise ConfigError("pipeline_startup_cycles must be non-negative")


@dataclass(frozen=True)
class ReplicaOutput:
    """What the voter reads from one replica for one frame: the replica's
    id, its output and the output's `tensor_digest`."""

    replica_id: int
    output: FixedPointTensor
    digest: int


def gen_weights(seed: int, arch) -> WeightSet:
    """Deterministic synthetic network for the given layer widths.

    Hidden layers use ReLU, the last layer is linear. Raw weight and bias
    values are confined to [-2**12, 2**12].
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
    values = (draws([seed], total)[0] % np.uint64(2 * WEIGHT_CLAMP + 1)).astype(np.int16) - WEIGHT_CLAMP
    layers = []
    for li, (in_w, out_w) in enumerate(zip(arch, arch[1:])):
        w, b, values = np.split(values, [out_w * in_w, (in_w + 1) * out_w])
        layers.append(
            LayerSpec(
                weights=FixedPointTensor((out_w, in_w), w),
                bias=FixedPointTensor((out_w,), b),
                activation=LINEAR if li == len(arch) - 2 else RELU,
            )
        )
    return WeightSet(tuple(layers))


def gen_frames(seed: int, frame_ids, shape) -> np.ndarray:
    """The frames `gen_frame` gives for each of `frame_ids`, as one int16
    array of shape (len(frame_ids), *shape)."""
    seeds = [derive_seed(seed, f"frame.{frame_id}") for frame_id in frame_ids]
    values = draws(seeds, math.prod(shape)) % np.uint64(2 * INPUT_CLAMP + 1)
    return (values.astype(np.int16) - INPUT_CLAMP).reshape(len(seeds), *shape)


def gen_frame(seed: int, frame_id: int, shape) -> FixedPointTensor:
    """Synthetic input frame, deterministic in (seed, frame_id, shape)."""
    return FixedPointTensor(tuple(shape), gen_frames(seed, [frame_id], shape)[0])


def _round_shift_half_even(acc: np.ndarray) -> np.ndarray:
    # acc / 256 rounded half-to-even; floor divmod keeps remainders in [0, 256)
    q = np.floor_divide(acc, SCALE)
    r = acc - q * SCALE
    half = SCALE >> 1
    bump = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + bump


def layer_costs(layer: LayerSpec) -> tuple:
    """(macs, loads, stores) for one layer: loads cover activations,
    weights and biases read; stores cover results written."""
    macs = layer.out_width * layer.in_width
    loads = layer.in_width + macs + layer.out_width
    stores = layer.out_width
    return macs, loads, stores


def infer(weights: WeightSet, frames, engine: EngineConfig):
    """Run the network on one frame or on a block of frames.

    For one FixedPointTensor, returns (output tensor, compute_cycles, bus
    trace). For a block, an int16 array holding one frame per index of
    axis 0, returns (int16 outputs, compute_cycles, uint64 digest rows),
    with one output row and one digest row per frame.

    compute_cycles = pipeline_startup + sum over layers of
    macs*cycles_per_mac + loads*cycles_per_load + stores*cycles_per_store,
    the same for every frame.
    """
    one = isinstance(frames, FixedPointTensor)
    shape = frames.shape if one else frames.shape[1:]
    if element_count(shape) != weights.input_width:
        raise DimensionError(
            f"input has {element_count(shape)} elements, network expects {weights.input_width}"
        )
    if one:
        outs, cycles, rows = infer(weights, frames.data.reshape(1, *shape), engine)
        out = FixedPointTensor((weights.layers[-1].out_width,), outs[0])
        return out, cycles, (weights.params_digests, tuple(rows[0].tolist()))
    x = frames.reshape(len(frames), -1)
    rows = [tensor_digests(shape, x)]
    cycles = engine.pipeline_startup_cycles
    for layer in weights.layers:
        w = layer.weights.data.reshape(layer.out_width, layer.in_width)
        acc = np.matmul(x, w.T, dtype=np.int64)
        acc += layer.bias.data.astype(np.int64) << FRAC_BITS
        y = _round_shift_half_even(acc)
        np.clip(y, RAW_MIN, RAW_MAX, out=y)
        if layer.activation == RELU:
            np.maximum(y, 0, out=y)
        x = y.astype(np.int16)
        rows.append(tensor_digests((layer.out_width,), x))
        macs, loads, stores = layer_costs(layer)
        cycles += (macs * engine.cycles_per_mac + loads * engine.cycles_per_load
                   + stores * engine.cycles_per_store)
    return x, cycles, np.stack(rows, axis=1)
