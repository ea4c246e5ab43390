"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(SimulationError):
    """Machine-config file is unreadable or a parameter combination is invalid."""


class CircuitParseError(SimulationError):
    """Circuit text could not be parsed; message carries source name and line."""


class MismatchedRegister(SimulationError):
    """A configuration or state vector does not match the register layout."""


class TipParked(SimulationError):
    """An operation needs the tip over a specific qubit but it is elsewhere."""


class SameQubit(SimulationError):
    """A two-qubit gate named the same qubit as both control and target."""


class IllFormedProgram(SimulationError):
    """A pulse program violates a structural rule (see message for which)."""


class DegenerateState(SimulationError):
    """State norm fell below the corruption guard; measurement is meaningless."""


class UnclassifiableFrequency(SimulationError):
    """An observed frequency matched no, or several, readout modulation lines."""


class AliasingError(SimulationError):
    """Requested trace sampling rate violates the Nyquist bound for its line."""


class RegisterTooLarge(SimulationError):
    """A run would need more memory than the host has, for its state or its gates."""
