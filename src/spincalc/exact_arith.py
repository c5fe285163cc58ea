"""Exact rational arithmetic for the Todd series and Bernoulli divisibility.

Everything here is computed over `fractions.Fraction`; no floats appear.
The Bernoulli convention is the positive one: B_k denotes the absolute value
of the classical B_{2k}, so B_1 = 1/6, B_2 = 1/30, B_3 = 1/42 and so on.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, _integer


def todd_coefficients(max_degree: int) -> list[Fraction]:
    """Taylor coefficients of td(z) = z / (1 - e^{-z}) up to max_degree.

    The series is obtained by exact reciprocal of
    (1 - e^{-z}) / z = sum_{k >= 0} (-z)^k / (k+1)!.
    Coefficient list is indexed by degree.  Beyond degree 1 every odd
    coefficient vanishes and the even ones alternate in sign.
    """
    _integer(max_degree, 0, "max_degree must be nonnegative")
    a = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(max_degree + 1)]
    t = [Fraction(1)]
    for n in range(1, max_degree + 1):
        t.append(-sum((a[j] * t[n - j] for j in range(1, n + 1)), Fraction(0)))
    return t


def bernoulli_paper(k: int) -> Fraction:
    """The k-th positive Bernoulli number, read off the Todd series.

    td(z) = 1 + z/2 + sum_{k >= 1} (-1)^{k+1} B_k / (2k)! * z^{2k}, hence
    B_k = (-1)^{k+1} (2k)! times the degree-2k Todd coefficient.
    """
    t = todd_coefficients(2 * _integer(k, 1, "k must be a positive integer"))
    value = (-1) ** (k + 1) * math.factorial(2 * k) * t[2 * k]
    return value


def bernoulli_quotient(k: int) -> Fraction:
    """B_k / 2k in lowest terms, the quantity whose denominator matters."""
    return bernoulli_paper(k) / (2 * k)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def von_staudt_factorization(k: int) -> dict[int, int]:
    """Prime factorization of den(B_k / 2k) by the von Staudt-Clausen rule.

    A prime p divides the denominator exactly when (p - 1) divides 2k, and
    then it appears with exponent 1 + nu_p(2k).
    """
    n = 2 * _integer(k, 1, "k must be a positive integer")
    factors: dict[int, int] = {}
    d = 1
    while d * d <= n:
        if n % d == 0:
            for divisor in (d, n // d):
                p = divisor + 1
                if _is_prime(p):
                    e = 1
                    m = n
                    while m % p == 0:
                        e += 1
                        m //= p
                    factors[p] = e
        d += 1
    return dict(sorted(factors.items()))


def von_staudt_den(k: int) -> int:
    """den(B_k / 2k) as a product of prime powers; always divisible by 12."""
    result = 1
    for p, e in von_staudt_factorization(k).items():
        result *= p**e
    return result


def divisor_oriented(n: int) -> int:
    """Largest integer dividing the n-th kappa class on the oriented base.

    Even n: the divisor is 2.  Odd n = 2i - 1: the divisor is den(B_i / 2i),
    so the first few odd values are 12, 120, 252.
    """
    if _integer(n, 1, "index must be a positive integer") % 2 == 0:
        return 2
    i = (n + 1) // 2
    return von_staudt_den(i)


class DivisibilityBound(
    namedtuple(
        "DivisibilityBound", "index oriented_divisor spin_divisor spin_maximality"
    )
):
    """Divisibility of the n-th kappa class, oriented versus spin.

    spin_maximality records whether the spin divisor is known to be the
    exact maximal divisor ("proven_maximal") or only a divisibility lower
    bound ("lower_bound_only").
    """

    __slots__ = ()

    def __new__(
        cls, index: int, oriented_divisor: int, spin_divisor: int, spin_maximality: str
    ) -> "DivisibilityBound":
        if _integer(spin_divisor) % _integer(oriented_divisor) != 0:
            raise DomainError("spin divisor must refine the oriented divisor")
        fields = (_integer(index), oriented_divisor, spin_divisor, spin_maximality)
        return tuple.__new__(cls, fields)


def divisor_spin(n: int) -> DivisibilityBound:
    """Divisibility bound for the n-th kappa class of spin surface bundles.

    Even n = 2m: the divisor is 2^{2m+1} and this is maximal.  Odd
    n = 2m - 1: the divisor is 2^{2m} * den(B_m / 2m), known only as a
    lower bound.  Example: n = 1 gives 4 * 12 = 48.  Both are the oriented
    divisor times 4^ceil(n/2): better by a power of 2.
    """
    oriented = divisor_oriented(n)
    maximality = "proven_maximal" if n % 2 == 0 else "lower_bound_only"
    return DivisibilityBound(n, oriented, 4 ** ((n + 1) // 2) * oriented, maximality)


class ModZ(namedtuple("ModZ", "residue")):
    """A rational number modulo Z, stored as the residue in [0, 1)."""

    __slots__ = ()

    def __new__(cls, residue: Fraction | int | str) -> "ModZ":
        if isinstance(residue, (float, bool)):
            raise TypeError(f"a residue is exact, not {type(residue).__name__}")
        residue = Fraction(residue)
        if not 0 <= residue < 1:
            residue %= 1
        return tuple.__new__(cls, (residue,))

    @property
    def alias(self) -> Fraction | None:
        """Negative representative when it is shorter to read, else None.

        Residues above 1/2 alias to residue - 1, so 11/12 reads as -1/12.
        """
        if self.residue > Fraction(1, 2):
            return self.residue - 1
        return None

    def __add__(self, other: "ModZ") -> "ModZ":
        return ModZ(self.residue + other.residue)

    def __mul__(self, n: int) -> "ModZ":
        if type(n) is not int:
            return NotImplemented
        return ModZ(n * self.residue)

    __rmul__ = __mul__

    def order(self) -> int:
        """Least positive m with m * self integral: the denominator q of the
        residue p/q in lowest terms.  Every residue has one; the bound of
        pi_3^s = Z/24 is applied by seifert.order_in_pi3 alone."""
        return self.residue.denominator

    def legible(self) -> Fraction:
        """The representative used for display: the alias when it exists."""
        return self.alias if self.alias is not None else self.residue

    def to_doc(self) -> dict:
        alias = self.alias
        return {
            "residue": fraction_doc(self.residue),
            "alias": None if alias is None else fraction_doc(alias),
        }

    def __str__(self) -> str:
        return str(self.residue)


def fraction_doc(q: Fraction) -> dict:
    """Serialized exact rational: decimal strings, lowest terms."""
    return {"num": str(q.numerator), "den": str(q.denominator)}
