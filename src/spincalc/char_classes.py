"""Characteristic classes of genus-0 and genus-1 universal surface bundles.

The kappa classes of the four families in scope admit closed forms in a
single characteristic-class generator each; the odd-index Newton classes
lambda_n live in the quotient ring Z[c2, c3] / (2 c3) and are produced by
the Newton recursion with c1 = 0.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
from .polynomials import QUOTIENT_GENS, IntPolynomial, QuotientedPolynomial

SPHERE_GENS = ("p1",)
PROJ_GENS = ("c1", "c2")
HP_GENS = ("u",)
TORUS_GENS = ("u",)


def _check_index(n: int) -> None:
    if n < 0:
        raise DomainError("class index must be nonnegative")


def sphere_kappa(n: int) -> IntPolynomial:
    """kappa_n of the universal sphere bundle: 2 * p1^k at n = 2k; odd
    indices vanish."""
    _check_index(n)
    if n % 2 == 1:
        return IntPolynomial.zero(SPHERE_GENS)
    return 2 * IntPolynomial.generator(SPHERE_GENS, "p1") ** (n // 2)


def proj_bundle_kappa(n: int) -> IntPolynomial:
    """kappa_n of a projectivized 2-plane bundle: 2 * (c1^2 - 4 c2)^k at n = 2k."""
    _check_index(n)
    if n % 2 == 1:
        return IntPolynomial.zero(PROJ_GENS)
    c1 = IntPolynomial.generator(PROJ_GENS, "c1")
    c2 = IntPolynomial.generator(PROJ_GENS, "c2")
    return 2 * (c1 * c1 - 4 * c2) ** (n // 2)


def hp_infinity_kappa(n: int) -> IntPolynomial:
    """kappa_n of the sphere bundle over quaternionic projective space.

    At n = 2k the value is (-1)^k 2^{2k+1} u^k with u the degree-4
    generator; odd indices vanish.
    """
    _check_index(n)
    if n % 2 == 1:
        return IntPolynomial.zero(HP_GENS)
    k = n // 2
    u = IntPolynomial.generator(HP_GENS, "u")
    return ((-1) ** k * 2 ** (2 * k + 1)) * u**k


def torus_kappa(n: int) -> IntPolynomial:
    """kappa_n of the universal torus bundle.

    All of them vanish; kappa_0 in particular is the fiber Euler
    characteristic, which is 0 for the torus.
    """
    _check_index(n)
    return IntPolynomial.zero(TORUS_GENS)


def torus_lambda(n: int) -> IntPolynomial:
    """lambda_n of the universal torus bundle: (-1)^n (1 - 2^n) u^n."""
    _check_index(n)
    u = IntPolynomial.generator(TORUS_GENS, "u")
    return ((-1) ** n * (1 - 2**n)) * u**n


def sphere_lambda(n: int) -> QuotientedPolynomial:
    """lambda_n of the universal sphere bundle in Z[c2, c3] / (2 c3).

    Seeds lambda_1 = 0, lambda_2 = -2 c2, lambda_3 = 3 c3 feed the Newton
    recursion lambda_n = -c2 lambda_{n-2} + c3 lambda_{n-3} for n >= 4.
    lambda_0 is the rank of the index bundle, 2, not the power sum s_0 = 3;
    the recursion above never consults index 0.
    """
    _check_index(n)
    c2 = QuotientedPolynomial.generator("c2")
    c3 = QuotientedPolynomial.generator("c3")
    values = [
        QuotientedPolynomial.constant(2),
        QuotientedPolynomial.zero(),
        -2 * c2,
        3 * c3,
    ]
    for m in range(4, n + 1):
        values.append(-c2 * values[m - 2] + c3 * values[m - 3])
    return values[n]


def sphere_kappa_in_quotient(n: int) -> QuotientedPolynomial:
    """Image of sphere kappa_n under p1 -> -c2, for comparison with lambda_n."""
    minus_c2 = -IntPolynomial.generator(QUOTIENT_GENS, "c2")
    image = sphere_kappa(n).substitute(QUOTIENT_GENS, {"p1": minus_c2})
    return QuotientedPolynomial(image)


def lambda_kappa_difference(n: int) -> QuotientedPolynomial:
    """lambda_n - kappa_n in the quotient ring; always killed by 2."""
    return sphere_lambda(n) - sphere_kappa_in_quotient(n)


class RiemannRochDim(namedtuple("RiemannRochDim", "genus power dimension")):
    """Kernel dimension of dbar on the m-th power of the canonical bundle."""

    __slots__ = ()


def _kernel_rows(g: int, m: int) -> dict[str, int]:
    """All closed-form rows applicable at (g, m); they must agree."""
    rows: dict[str, int] = {}
    if m == 0:
        rows["m=0"] = 1
    if m == 1:
        rows["m=1"] = g
    if g == 0 and m <= 0:
        # h^0 of O(-2m) on the projective line; m = -1 is the 3-dimensional
        # space of holomorphic vector fields
        rows["g=0,m<=0"] = 1 - 2 * m
    if g == 0 and m > 0:
        rows["g=0,m>0"] = 0
    if g == 1:
        rows["g=1"] = 1
    if g >= 2 and m < 0:
        rows["g>=2,m<0"] = 0
    if g >= 2 and m >= 2:
        rows["g>=2,m>=2"] = (2 * m - 1) * (g - 1)
    return rows


def riemann_roch_dim(g: int, m: int) -> RiemannRochDim:
    """dim ker dbar_{Lambda^m} on a genus-g surface, by the closed table."""
    if g < 0:
        raise DomainError("genus must be nonnegative")
    rows = _kernel_rows(g, m)
    values = set(rows.values())
    if not rows:
        raise DomainError(f"no row covers genus {g}, power {m}")
    if len(values) > 1:
        raise DomainError(f"inconsistent rows at genus {g}, power {m}: {rows}")
    return RiemannRochDim(g, m, values.pop())


def cokernel_dim(g: int, m: int) -> int:
    """dim coker dbar_{Lambda^m} = dim ker dbar_{Lambda^{1-m}} (Serre duality)."""
    return riemann_roch_dim(g, 1 - m).dimension


def serre_duality_check(g: int, m: int) -> bool:
    """Index identity dim ker - dim coker = (2m - 1)(g - 1)."""
    ker = riemann_roch_dim(g, m).dimension
    coker = cokernel_dim(g, m)
    return ker - coker == (2 * m - 1) * (g - 1)

