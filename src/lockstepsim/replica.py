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
"""

from __future__ import annotations

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
    argmax_index,
    combine_digests,
    tensor_digest,
)
from .rng import Rng, derive_seed

RELU = "relu"
LINEAR = "none"
ACTIVATIONS = (RELU, LINEAR)

FETCH = "fetch"
LOAD = "load"
EXECUTE = "execute"
STORE = "store"

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
    """One dense layer: weights (out x in), bias (out), activation.

    `weight_matrix` (int64, out x in) and `shifted_bias` (int64,
    bias << FRAC_BITS) are built on first use and cached on the layer.
    Both are read-only. A weight flip builds a new layer, which builds
    its own arrays.
    """

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

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        w = np.array(self.weights.data, dtype=np.int64).reshape(self.out_width, self.in_width)
        w.flags.writeable = False
        return w

    @cached_property
    def shifted_bias(self) -> np.ndarray:
        b = np.array(self.bias.data, dtype=np.int64) << FRAC_BITS
        b.flags.writeable = False
        return b


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

    def digest(self) -> int:
        parts = []
        for layer in self.layers:
            parts.append(tensor_digest(layer.weights))
            parts.append(tensor_digest(layer.bias))
        return combine_digests(*parts)


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
class BusEvent:
    cycle: int
    kind: str
    payload_digest: int


@dataclass(frozen=True)
class ReplicaOutput:
    """What the voter sees from one replica for one frame."""

    replica_id: int
    frame_id: int
    output: FixedPointTensor
    classification: int
    digest: int
    compute_cycles: int
    completion_time: int
    trace: tuple


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
    rng = Rng(seed)
    span = 2 * WEIGHT_CLAMP + 1
    layers = []
    for li, (in_w, out_w) in enumerate(zip(arch, arch[1:])):
        w = tuple(rng.randrange(span) - WEIGHT_CLAMP for _ in range(out_w * in_w))
        b = tuple(rng.randrange(span) - WEIGHT_CLAMP for _ in range(out_w))
        activation = LINEAR if li == len(arch) - 2 else RELU
        layers.append(
            LayerSpec(
                weights=FixedPointTensor((out_w, in_w), w),
                bias=FixedPointTensor((out_w,), b),
                activation=activation,
            )
        )
    return WeightSet(tuple(layers))


def gen_frame(seed: int, frame_id: int, shape) -> FixedPointTensor:
    """Synthetic input frame, deterministic in (seed, frame_id, shape)."""
    rng = Rng(derive_seed(seed, f"frame.{frame_id}"))
    count = 1
    for d in shape:
        count *= d
    span = 2 * INPUT_CLAMP + 1
    data = tuple(rng.randrange(span) - INPUT_CLAMP for _ in range(count))
    return FixedPointTensor(tuple(shape), data)


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


def infer(weights: WeightSet, input_tensor: FixedPointTensor, engine: EngineConfig):
    """Run the network. Returns (output tensor, compute_cycles, bus trace).

    compute_cycles = pipeline_startup + sum over layers of
    macs*cycles_per_mac + loads*cycles_per_load + stores*cycles_per_store.
    The trace carries one fetch/load/execute/store group per layer with
    digests of the parameters read, activations read and results written.
    """
    if input_tensor.element_count != weights.input_width:
        raise DimensionError(
            f"input has {input_tensor.element_count} elements, network expects {weights.input_width}"
        )
    current = input_tensor
    cycle = engine.pipeline_startup_cycles
    trace = []
    for layer in weights.layers:
        x = np.asarray(current.data, dtype=np.int64)
        acc = layer.weight_matrix @ x + layer.shifted_bias
        y = _round_shift_half_even(acc)
        np.clip(y, RAW_MIN, RAW_MAX, out=y)
        if layer.activation == RELU:
            np.maximum(y, 0, out=y)
        out_tensor = FixedPointTensor((layer.out_width,), tuple(int(v) for v in y))

        macs, loads, stores = layer_costs(layer)
        params_digest = combine_digests(tensor_digest(layer.weights), tensor_digest(layer.bias))
        out_digest = tensor_digest(out_tensor)
        load_done = cycle + loads * engine.cycles_per_load
        exec_done = load_done + macs * engine.cycles_per_mac
        trace.append(BusEvent(cycle, FETCH, params_digest))
        trace.append(BusEvent(cycle, LOAD, tensor_digest(current)))
        trace.append(BusEvent(load_done, EXECUTE, out_digest))
        trace.append(BusEvent(exec_done, STORE, out_digest))
        cycle = exec_done + stores * engine.cycles_per_store
        current = out_tensor
    return current, cycle, tuple(trace)
