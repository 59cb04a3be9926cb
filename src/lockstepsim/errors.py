"""Exception types shared across the harness."""


class HarnessError(Exception):
    """Base class for all harness-raised errors."""


class ConfigError(HarnessError):
    """Invalid configuration. Carries every collected problem, not just the first."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DimensionError(HarnessError):
    """Input shape does not match the network."""


class ProtocolError(HarnessError):
    """Inconsistent PTP exchange timestamps (`coupling.estimate_ptp_offset`)."""


class SimulationError(HarnessError):
    """An unsimulable run: a negative cycle count, a delivery or completion
    before its release, or simulated time that could reach 2**62 ns."""

