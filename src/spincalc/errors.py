"""Shared exception types, and the integer rule of every public entry point.

Every domain error raised by the library derives from SpincalcError, so the
CLI can map the whole family to exit code 1.  `_integer` is the one place
that decides what an integer argument is: an `int`, never a bool, a float or
a string.
"""

from __future__ import annotations


class SpincalcError(Exception):
    """Base class for all domain errors raised by spincalc."""


class DegeneratePairingError(SpincalcError):
    """The alternating pairing is degenerate (no symplectic basis exists)."""


class DimensionMismatchError(SpincalcError):
    """Operands live on spaces of incompatible dimensions."""


class EnumerationCapError(SpincalcError):
    """enumerate_forms or arf_gauss past the genus cap, or a multiplicity_solve
    search past its cap."""


class WitnessSearchError(SpincalcError):
    """A built witness breaks a relation it must satisfy; only
    find_presentation_triple raises it, and it searches for nothing."""


class InvalidFormError(SpincalcError):
    """Malformed quadratic form data."""


class InvalidSeifertDataError(SpincalcError):
    """Seifert pairs violate a precondition (a_j < 1 or gcd(a_j, b_j) > 1)."""


class CentralBehaviorError(SpincalcError):
    """A formula was applied to a representation with the wrong center type."""


class MultiplicityError(SpincalcError):
    """The eigenvalue multiplicity system has no solution or several."""

    def __init__(self, message: str, solutions: tuple = ()):  # noqa: D401
        super().__init__(message)
        self.solutions = solutions


class TorsionBoundError(SpincalcError):
    """A mod-Z value outside pi_3^s = Z/24; only seifert.order_in_pi3 raises it."""


class DomainError(SpincalcError):
    """An argument is outside the mathematical domain of the operation."""


def _integer(value, lo=None, message="", error=DomainError, field="") -> int:
    """value, if type(value) is int: a bool, float or string raises TypeError,
    or error led by field when a document names the field.  Below lo it raises
    error(message), with {} in message standing for value."""
    if type(value) is not int:
        kind = error if field else TypeError
        raise kind(f"{field}expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise error(message.format(value))
    return value
