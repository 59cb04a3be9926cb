"""Fault transforms applied to a single channel.

Weight flips hit the parameters before inference, output flips hit the
produced tensor, delay faults push the completion timestamp, drop and
stuck faults act at output emission. Indices are validated when the
experiment is loaded, never at run time. Each fault owns its trigger RNG
stream, so evaluation order cannot perturb any other stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fixedpoint import FixedPointTensor, flip_bit
from .replica import LayerSpec, WeightSet
from .rng import Rng


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


def trigger_fires(trigger, frame_id: int, rng: Rng) -> bool:
    if isinstance(trigger, Always):
        return True
    if isinstance(trigger, OnFrame):
        return frame_id == trigger.frame_id
    if isinstance(trigger, WithProbability):
        return rng.uniform() < trigger.p
    raise TypeError(f"unknown trigger {trigger!r}")


@dataclass
class FaultEffects:
    """Accumulated effect of every fault fired for one inference."""

    weight_flips: list = field(default_factory=list)
    output_flips: list = field(default_factory=list)
    extra_delay_ns: int = 0
    drop: bool = False
    stuck: bool = False


def apply_fault(spec: FaultSpec, effects: FaultEffects, frame_id: int, rng: Rng) -> bool:
    """Evaluate the trigger and fold the fault into `effects`.

    Returns whether the fault applied for this inference.
    """
    if not trigger_fires(spec.trigger, frame_id, rng):
        return False
    kind = spec.kind
    if isinstance(kind, WeightBitFlip):
        effects.weight_flips.append((kind.layer, kind.element_index, kind.bit))
    elif isinstance(kind, OutputBitFlip):
        effects.output_flips.append((kind.element_index, kind.bit))
    elif isinstance(kind, ExtraDelay):
        effects.extra_delay_ns += kind.ns
    elif isinstance(kind, DropOutput):
        effects.drop = True
    elif isinstance(kind, StuckOutput):
        effects.stuck = True
    else:
        raise TypeError(f"unknown fault kind {kind!r}")
    return True


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
