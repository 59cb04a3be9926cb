"""Deterministic simulator and analysis harness for redundant (lockstep)
inference channels: duplex/MooN voting, fail-safe switching, fault
injection, and turnaround-time profiling."""

from .config import ExperimentConfig, Topology, Workload, config_from_dict, load_config
from .coupling import (
    Complete,
    Divergence,
    InputBarrier,
    Loose,
    PtpExchange,
    PtpEstimate,
    Tight,
    Timeout,
    align_timestamps,
    compare_bus_traces,
    distribute_input,
    estimate_ptp_offset,
    rendezvous,
    simulate_ptp_exchange,
)
from .errors import (
    ConfigError,
    DimensionError,
    HarnessError,
    NoHealthyReplicas,
    ProtocolError,
    SimulationError,
)
from .eventsim import ClockDomain, JitterModel, cycles_to_time, sample_turnaround_overhead
from .experiment import (
    ExperimentReport,
    ExperimentRunner,
    compare_runs,
    run_experiment,
    run_to_directory,
)
from .faults import (
    Always,
    DropOutput,
    ExtraDelay,
    FaultSpec,
    OnFrame,
    OutputBitFlip,
    StuckOutput,
    WeightBitFlip,
    WithProbability,
    apply_fault,
)
from .fixedpoint import FixedPointTensor, tensor_digest
from .profiling import (
    ComparisonReport,
    LatencySample,
    OutlierReport,
    ProfileStats,
    detect_outliers,
    histogram,
    ks_statistic,
    stats,
)
from .replica import (
    BusEvent,
    EngineConfig,
    Replica,
    ReplicaOutput,
    WeightSet,
    gen_frame,
    gen_weights,
    infer,
)
from .rng import Rng, derive_seed
from .voting import (
    Exact,
    SafetySwitchState,
    Tolerance,
    Verdict,
    VotingPolicy,
    group_agreements,
    step_safety,
    vote,
)

__version__ = "0.1.0"
