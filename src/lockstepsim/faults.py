"""Fault kinds, their triggers and the transforms they apply to a channel.

Weight flips hit the parameters before inference (`flip_weight_bits`),
output flips hit the produced outputs (`flip_output_bits`), delay faults
push the completion timestamp, drop faults mask the output and a stuck
output repeats the replica's last emitted output. Indices are validated
when the experiment is loaded, never at run time. Each fault owns its
trigger RNG stream, so evaluation order cannot perturb any other stream.
Triggers are evaluated for a chunk of rounds at once (`trigger_fires`), and
the runner applies every kind to the chunk's arrays; the value faults
(`VALUE_FAULTS`) of one inference act in the order weight flips, output
flips, stuck.
"""

from __future__ import annotations

import numpy as np

from .record import Record
from .rng import below


class Always(Record, frozen=True):
    pass


class OnFrame(Record, frozen=True):
    frame_id: int
    bounds = {"frame_id": (0, None)}


class WithProbability(Record, frozen=True):
    p: float
    bounds = {"p": (0.0, 1.0)}


class WeightBitFlip(Record, frozen=True):
    layer: int
    element_index: int
    bit: int
    bounds = {"layer": (0, None), "element_index": (0, None), "bit": (0, 15)}


class OutputBitFlip(Record, frozen=True):
    element_index: int
    bit: int
    bounds = {"element_index": (0, None), "bit": (0, 15)}


class ExtraDelay(Record, frozen=True):
    ns: int
    bounds = {"ns": (0, None)}


class DropOutput(Record, frozen=True):
    pass


class StuckOutput(Record, frozen=True):
    pass


class FaultSpec(Record, frozen=True):
    kind: object
    trigger: object = Always()


def trigger_fires(trigger, frame_ids: np.ndarray, seed: int, start: int) -> np.ndarray:
    """Whether `trigger` fires in each round of a chunk, whose frames are
    `frame_ids` and whose first round is the run's round `start`, as a bool
    array. A probabilistic trigger takes one draw per round from the stream
    `seed`, so round `start + i` reads draw `start + i + 1`."""
    if isinstance(trigger, Always):
        return np.ones(len(frame_ids), dtype=bool)
    if isinstance(trigger, OnFrame):
        return frame_ids == trigger.frame_id
    if isinstance(trigger, WithProbability):
        return below(seed, np.arange(start + 1, start + len(frame_ids) + 1, dtype=np.uint64), trigger.p)
    raise TypeError(f"unknown trigger {trigger!r}")


VALUE_FAULTS = (WeightBitFlip, OutputBitFlip, StuckOutput)


def flip_weight_bits(layers, flips) -> tuple:
    """Copy of the network `layers` (`replica.gen_weights`) with the named
    weight bits XORed. A flipped layer gets a new read-only weight array;
    every other array is shared."""
    layers = list(layers)
    for layer_idx, element_index, bit in flips:
        w, b = layers[layer_idx]
        w = w.copy()
        w.view(np.uint16).reshape(-1)[element_index] ^= 1 << bit
        w.flags.writeable = False
        layers[layer_idx] = (w, b)
    return tuple(layers)


def flip_output_bits(outputs: np.ndarray, flips, fired: np.ndarray) -> None:
    """XOR into `outputs`, an int16 array with one output per row, the bits
    of the output flips that fired in each row's round: `flips` holds the
    (element_index, bit) of each flip and `fired[:, s]` whether flip s
    fired. Two flips of one bit cancel."""
    bits = outputs.view(np.uint16)
    for s, (element_index, bit) in enumerate(flips):
        bits[:, element_index] ^= fired[:, s].astype(np.uint16) << np.uint16(bit)
