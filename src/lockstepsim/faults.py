"""Fault transforms applied to a single channel.

Weight flips hit the parameters before inference, output flips hit the
produced tensor, delay faults push the completion timestamp, drop and
stuck faults act at output emission. Indices are validated when the
experiment is loaded, never at run time. Each fault owns its trigger RNG
stream, so evaluation order cannot perturb any other stream. Triggers are
evaluated for a chunk of rounds at once (`trigger_fires`); the runner adds
delays to its completion times and masks drops, and `apply_fault` folds the
value faults (weight flips, output flips, stuck) of one inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import FixedPointTensor, flip_bit
from .replica import LayerSpec, WeightSet
from .rng import uniforms


@dataclass(frozen=True)
class Always:
    pass


@dataclass(frozen=True)
class OnFrame:
    frame_id: int


@dataclass(frozen=True)
class WithProbability:
    p: float


@dataclass(frozen=True)
class WeightBitFlip:
    layer: int
    element_index: int
    bit: int


@dataclass(frozen=True)
class OutputBitFlip:
    element_index: int
    bit: int


@dataclass(frozen=True)
class ExtraDelay:
    ns: int


@dataclass(frozen=True)
class DropOutput:
    pass


@dataclass(frozen=True)
class StuckOutput:
    pass


@dataclass(frozen=True)
class FaultSpec:
    kind: object
    trigger: object = Always()


def trigger_fires(trigger, frame_ids: np.ndarray, seed: int, start: int):
    """Whether `trigger` fires in each round of a chunk, whose frames are
    `frame_ids`, as a bool array, and the number of draws it took. A
    probabilistic trigger takes one draw per round from the stream
    `Rng(seed)`, after its first `start` draws."""
    if isinstance(trigger, Always):
        return np.ones(len(frame_ids), dtype=bool), 0
    if isinstance(trigger, OnFrame):
        return frame_ids == trigger.frame_id, 0
    if isinstance(trigger, WithProbability):
        return uniforms(seed, len(frame_ids), start) < trigger.p, len(frame_ids)
    raise TypeError(f"unknown trigger {trigger!r}")


VALUE_FAULTS = (WeightBitFlip, OutputBitFlip, StuckOutput)


@dataclass
class FaultEffects:
    """Accumulated effect of every value fault fired for one inference."""

    weight_flips: list = field(default_factory=list)
    output_flips: list = field(default_factory=list)
    stuck: bool = False


def apply_fault(spec: FaultSpec, effects: FaultEffects) -> None:
    """Fold a value fault (one of `VALUE_FAULTS`) that fired into `effects`."""
    kind = spec.kind
    if isinstance(kind, WeightBitFlip):
        effects.weight_flips.append((kind.layer, kind.element_index, kind.bit))
    elif isinstance(kind, OutputBitFlip):
        effects.output_flips.append((kind.element_index, kind.bit))
    elif isinstance(kind, StuckOutput):
        effects.stuck = True
    else:
        raise TypeError(f"not a value fault: {kind!r}")


def flip_weight_bits(weights: WeightSet, flips) -> WeightSet:
    """Copy of `weights` with the named weight bits XORed."""
    layers = list(weights.layers)
    for layer_idx, element_index, bit in flips:
        layer = layers[layer_idx]
        layers[layer_idx] = LayerSpec(
            weights=flip_bit(layer.weights, element_index, bit),
            bias=layer.bias,
            activation=layer.activation,
        )
    return WeightSet(tuple(layers))


def flip_output_bits(tensor: FixedPointTensor, flips) -> FixedPointTensor:
    for element_index, bit in flips:
        tensor = flip_bit(tensor, element_index, bit)
    return tensor
