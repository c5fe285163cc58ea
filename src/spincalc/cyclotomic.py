"""Exact arithmetic in Z[zeta_m], the ring of integers of the m-th cyclotomic field.

Elements are integer coefficient tuples on the power basis 1, x, ..., x^{d-1}
with d = deg Phi_m.  One long division by a monic polynomial does all the
work: it builds Phi_m out of x^m - 1, and it reduces every element modulo
Phi_m.  The multiplicity solver needs only construction and exact equality,
so the module holds `cyclotomic_polynomial`, `element` and `_divmod` alone;
a rational integer n is element(m, {0: n}).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import _integer


def _divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den, lowest degree first."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for j, b in enumerate(den):
                num[k + j] -= c * b
    return quot, num[:dd]


@lru_cache(maxsize=None, typed=True)  # typed, so True is not a hit for 1
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, lowest degree first: x^m - 1 divided in turn by
    Phi_d for every proper divisor d of m."""
    poly = [-1] + [0] * (_integer(m, 1, "m must be positive") - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


def element(m: int, multiplicities: dict[int, int]) -> tuple[int, ...]:
    """sum_e mu_e zeta_m^e as a reduced coefficient tuple: the multiplicities
    summed by e mod m, then divided by Phi_m for the remainder."""
    phi = cyclotomic_polynomial(m)
    coeffs = [0] * m
    for e, mu in multiplicities.items():
        if type(mu) is not int:  # errors._integer's rule, inline per term
            raise TypeError(f"expected an integer multiplicity, got {mu!r}")
        coeffs[e % m] += mu
    return tuple(_divmod(coeffs, phi)[1])

