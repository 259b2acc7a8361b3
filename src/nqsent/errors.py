"""Exception hierarchy shared by all modules.

Domain errors (anything deriving from :class:`NqsError`) map to CLI exit
code 2; usage errors are handled by the CLI layer itself.
"""


class NqsError(Exception):
    """Base class for all library errors."""


class CapacityError(NqsError):
    """Requested size exceeds the configured spin cap or a dense-matrix limit."""


class ContractError(NqsError):
    """Arguments violate an operation's preconditions (dimension mismatch etc.)."""


class CycleError(NqsError):
    """Computation graph contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"graph contains a directed cycle: {' -> '.join(map(str, self.cycle))}")


class NumericError(NqsError):
    """Non-finite values or an eigensolver failure."""


class AmplitudeOverflowError(NumericError):
    """exp() argument too large or an amplitude not finite; names the
    offending configuration when known."""

    def __init__(self, message, bits=None):
        self.bits = bits
        super().__init__(message)


class DegenerateStateError(NqsError):
    """All amplitudes vanish; the state cannot be normalized."""


class DomainError(NqsError):
    """Scalar argument outside its mathematical domain."""


class ConsistencyError(NqsError):
    """Internal cross-check failed (normalization drift, eval mismatch)."""


class ExperimentError(NqsError):
    """An ensemble run produced too many degenerate trials to be meaningful."""
