"""Exception hierarchy.

ConfigError and its subclasses map to CLI exit code 2; every other
PulseschedError maps to exit code 3.
"""

import numbers


class PulseschedError(Exception):
    """Base class for all package errors."""


class ConfigError(PulseschedError):
    """Invalid configuration or input (CLI exit code 2)."""


def is_integer(value) -> bool:
    """An integer of any integral type, but not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_count(name: str, value, minimum: int):
    """Raise ``ConfigError`` unless ``value`` is an integer, not a bool, of at least ``minimum``."""
    if not is_integer(value) or value < minimum:
        raise ConfigError(f"{name} must be an integer of at least {minimum}, got {value!r}")


class CircuitSyntaxError(ConfigError):
    """Circuit source could not be parsed; carries a 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GateSetError(ConfigError):
    """Gate set cannot provide a required implementation or duration list."""


class NoiseConfigError(ConfigError):
    """Unphysical or malformed noise parameters (e.g. T2 > 2*T1)."""


class MalformedGraphError(PulseschedError):
    """Dependency graph violates its invariants (e.g. contains a cycle)."""


class ScheduleOverlapError(PulseschedError):
    """Two pulses overlap on the same qubit timeline."""


class SimulationError(PulseschedError):
    """Simulator cannot run the requested schedule."""


class CalibrationError(SimulationError):
    """Calibration pipeline failed to produce a usable gate implementation."""


class RabiFitError(CalibrationError):
    """Rabi oscillation fit did not converge or exceeded the residual bound."""


class InfeasibleDurationError(CalibrationError):
    """Requested rotation/duration needs a drive amplitude above unit bound."""


class ClippingError(PulseschedError):
    """Synthesized waveform exceeds unit amplitude."""


class ExtrapolationWarning(UserWarning):
    """Amplitude interpolation was queried outside the calibrated range."""
