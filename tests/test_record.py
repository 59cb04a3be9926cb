"""The record base class: construction, bounds, equality, hashing,
immutability and `replace`, on the package's own records and on small
local ones."""

import pytest

from lockstepsim.config import ExperimentConfig, ProfilerSettings, PtpSettings, Workload, config_from_dict
from lockstepsim.coupling import Loose, Tight
from lockstepsim.errors import ConfigError
from lockstepsim.eventsim import ClockDomain, JitterModel
from lockstepsim.faults import (
    Always, DropOutput, ExtraDelay, FaultSpec, OnFrame, OutputBitFlip, WeightBitFlip, WithProbability,
)
from lockstepsim.record import Record
from lockstepsim.replica import EngineConfig
from lockstepsim.voting import Tolerance, VotingPolicy
from helpers import zero_jitter_duplex


class Point(Record, frozen=True):
    x: int
    y: int = 0


class Box(Record):
    x: int = 1
    items: list = None


def test_fields_in_order_and_defaults_filled():
    assert Point.field_names == ("x", "y")
    assert Point(3) == Point(3, 0) == Point(x=3) == Point(y=0, x=3)
    assert repr(Point(3, 4)) == "Point(x=3, y=4)"
    assert ExperimentConfig.field_names == ("seed", "topology", "workload", "faults", "profiler", "metadata")


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 2})])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_equality_by_type_and_values():
    assert Tight(2) == Tight(2)
    assert Tight(2) != Tight(3)
    assert Tight(2) != Loose(2)
    assert Always() != DropOutput()
    assert Point(1, 2) != (1, 2)
    assert FaultSpec(WeightBitFlip(0, 1, 2)) == FaultSpec(WeightBitFlip(0, 1, 2), Always())
    assert Box(1, [2]) == Box(1, [2]) != Box(1, [3])


def test_equal_frozen_records_hash_equal_and_mutable_ones_do_not_hash():
    assert hash(Point(1, 2)) == hash(Point(1, 2))
    assert hash(ClockDomain(5)) == hash(ClockDomain(5, 0))
    assert len({WeightBitFlip(0, 1, 2), WeightBitFlip(0, 1, 2), WeightBitFlip(0, 1, 3)}) == 2
    for mutable in (Box(), Workload(), ProfilerSettings()):
        with pytest.raises(TypeError):
            hash(mutable)


def test_frozen_records_refuse_assignment_and_mutable_ones_take_it():
    p = Point(1)
    with pytest.raises(AttributeError):
        p.x = 2
    with pytest.raises(AttributeError):
        p.z = 2
    with pytest.raises(AttributeError):
        del p.y
    assert p == Point(1)
    b = Box()
    b.x = 5
    assert b == Box(5)


@pytest.mark.parametrize("cls, kwargs, error", [
    (ExtraDelay, {"ns": -1}, "ns: must be >= 0, got -1"),
    (WeightBitFlip, {"layer": 0, "element_index": 0, "bit": 16}, "bit: must be <= 15, got 16"),
    (Workload, {"frame_count": 0}, "frame_count: must be >= 1, got 0"),
    (Workload, {"arch": (16, 1025)}, "arch[1]: must be <= 1024, got 1025"),
    (Tolerance, {"eps": float("nan")}, "eps: must be >= 0.0, got nan"),
    (JitterModel, {"spike_prob": float("nan")}, "spike_prob: must be >= 0.0, got nan"),
    (VotingPolicy, {"m": 3, "n": 2}, "voting policy needs m <= n, got 3oo2"),
])
def test_constructor_refuses_a_value_out_of_bounds(cls, kwargs, error):
    with pytest.raises(ConfigError) as exc:
        cls(**kwargs)
    assert exc.value.errors == [error]


# A valid record of every class that declares bounds.
BOUNDED = (
    Tight(), Loose(1), Tolerance(0.5), VotingPolicy(1, 2), ClockDomain(1), EngineConfig(),
    JitterModel(), PtpSettings(), Workload(), ProfilerSettings(), WeightBitFlip(0, 0, 0),
    OutputBitFlip(0, 0), ExtraDelay(0), OnFrame(0), WithProbability(0.5),
    config_from_dict(zero_jitter_duplex(), env={}).topology,
)


def test_every_class_with_bounds_is_covered():
    assert {type(r) for r in BOUNDED} == {cls for cls in Record.__subclasses__() if cls.bounds}


@pytest.mark.parametrize("record", BOUNDED, ids=[type(r).__name__ for r in BOUNDED])
def test_every_bound_is_checked_on_construction(record):
    for name, (lo, hi) in type(record).bounds.items():
        cases = [(lo - 1, f">= {lo}")] if lo is not None else []
        cases += [(hi + 1, f"<= {hi}")] if hi is not None else []
        cases.append((float("nan"), cases[0][1]))  # NaN breaks the first limit checked
        in_tuple = isinstance(getattr(record, name), tuple)  # a tuple's bound applies to each element
        for v, rule in cases:
            with pytest.raises(ConfigError) as exc:
                type(record)(**{**vars(record), name: (1, v) if in_tuple else v})
            assert exc.value.errors == [f"{name}{'[1]' if in_tuple else ''}: must be {rule}, got {v}"]


def test_defaults_stay_per_class_and_metadata_is_not_shared():
    assert Box().items is None and Point(1).y == 0
    assert EngineConfig().pipeline_startup_cycles == 64
    assert config_from_dict(zero_jitter_duplex(), env={}).topology.engine.pipeline_startup_cycles == 64
    cfg = config_from_dict(zero_jitter_duplex(), env={})
    a = ExperimentConfig(cfg.seed, cfg.topology, cfg.workload, [], cfg.profiler)
    b = ExperimentConfig(cfg.seed, cfg.topology, cfg.workload, [], cfg.profiler)
    a.metadata["k"] = 1
    assert b.metadata == {} and a.metadata == {"k": 1}
