"""Deterministic simulator and analysis harness for redundant (lockstep)
inference channels: duplex/MooN voting, fail-safe switching, fault
injection, and turnaround-time profiling.

The package exports the entry points below; everything else lives in its
module (`lockstepsim.voting`, `lockstepsim.faults`, ...)."""

# before the imports: the trace header of a run names the version
__version__ = "0.1.0"

from .config import ExperimentConfig, config_from_dict, load_config
from .errors import ConfigError, HarnessError
from .experiment import ExperimentReport, ExperimentRunner, run_experiment, run_to_directory
from .profiling import compare_runs
from .replica import gen_frame, gen_weights, infer

__all__ = [
    "load_config",
    "config_from_dict",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentReport",
    "run_experiment",
    "run_to_directory",
    "compare_runs",
    "gen_weights",
    "gen_frame",
    "infer",
    "ConfigError",
    "HarnessError",
    "__version__",
]
