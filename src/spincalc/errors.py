"""Shared exception types.

Every domain error raised by the library derives from SpincalcError, so the
CLI can map the whole family to exit code 1.
"""

from __future__ import annotations


class SpincalcError(Exception):
    """Base class for all domain errors raised by spincalc."""


class DegeneratePairingError(SpincalcError):
    """The alternating pairing is degenerate (no symplectic basis exists)."""


class DimensionMismatchError(SpincalcError):
    """Operands live on spaces of incompatible dimensions."""


class EnumerationCapError(SpincalcError):
    """An exhaustive enumeration would exceed the configured genus cap."""


class WitnessSearchError(SpincalcError):
    """A search for a witness came back empty; only find_presentation_triple
    raises it."""


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
    """A mod-Z value is not annihilated by any positive integer <= the cap."""


class DomainError(SpincalcError):
    """An argument is outside the mathematical domain of the operation."""
