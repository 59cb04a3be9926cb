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
    """Replica misbehavior as seen by the checker (duplicate outputs, bad exchange)."""


class SimulationError(HarnessError):
    """Fatal event-loop violation, e.g. scheduling into the past."""

