"""Exception taxonomy shared by all modules, and the two argument checks that raise it."""

MAX_COUNT = 2**53  # largest count accepted anywhere: every integer up to it is exact in a double


class SdsError(Exception):
    """Base class for every error raised by this package."""


class ParameterDomainError(SdsError, ValueError):
    """A physical parameter is outside its admissible domain."""


class UnitSystemError(SdsError, ValueError):
    """An operation that is only meaningful in one unit system got the other."""


class QuantumNumberError(ParameterDomainError):
    """Quantum numbers violate their admissibility constraints (parity, ordering)."""


class UndeformedLimitError(SdsError, ValueError):
    """A deformed-only quantity was requested at zero deformation (it diverges)."""


class UnsupportedRepresentationError(SdsError, ValueError):
    """The bounded-momentum representation does not exist for these parameters."""


class OutOfRegimeError(SdsError, ArithmeticError):
    """A high-temperature/asymptotic formula was evaluated outside its validity domain."""


class NumericError(SdsError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


def check_count(value, what: str, low: int = 0) -> int:
    """``value`` as an int if it is an integer in [low, 2^53] (3.0 counts as 3).  The bounds are
    compared first: they are false for NaN and reject +-inf and huge ints before ``int()`` can raise."""
    if not (low <= value <= MAX_COUNT and value == int(value)):
        raise QuantumNumberError(f"{what} must be a finite integer in [{low}, 2^53], got {value!r}")
    return int(value)


def check_above(value, bound: float, what: str) -> None:
    """Require value > bound; a NaN value fails the comparison and is rejected."""
    if not value > bound:
        raise ParameterDomainError(f"{what} must be greater than {bound}, got {value!r}")
