"""Characteristic classes of genus-0 and genus-1 universal surface bundles.

The kappa classes of the four families in scope admit closed forms in a
single characteristic-class generator each; the odd-index Newton classes
lambda_n live in the quotient ring Z[c2, c3] / (2 c3) and are the power sums
that the Girard-Waring formula gives in closed form with c1 = 0.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import _integer
from .polynomials import QUOTIENT_GENS, IntPolynomial, QuotientedPolynomial

SPHERE_GENS = ("p1",)
PROJ_GENS = ("c1", "c2")
HP_GENS = ("u",)
TORUS_GENS = ("u",)
_BAD_INDEX = "class index must be nonnegative"


def sphere_kappa(n: int) -> IntPolynomial:
    """kappa_n of the universal sphere bundle: 2 * p1^k at n = 2k; odd
    indices vanish."""
    if _integer(n, 0, _BAD_INDEX) % 2 == 1:
        return IntPolynomial.zero(SPHERE_GENS)
    return 2 * IntPolynomial.generator(SPHERE_GENS, "p1") ** (n // 2)


def proj_bundle_kappa(n: int) -> IntPolynomial:
    """kappa_n of a projectivized 2-plane bundle: 2 * (c1^2 - 4 c2)^k at n = 2k,
    expanded by the binomial theorem as 2 sum_j C(k, j) (-4)^j c1^{2(k-j)} c2^j."""
    if _integer(n, 0, _BAD_INDEX) % 2 == 1:
        return IntPolynomial.zero(PROJ_GENS)
    k = n // 2
    terms = {(2 * (k - j), j): 2 * comb(k, j) * (-4) ** j for j in range(k + 1)}
    return IntPolynomial(PROJ_GENS, terms)


def hp_infinity_kappa(n: int) -> IntPolynomial:
    """kappa_n of the sphere bundle over quaternionic projective space.

    At n = 2k the value is (-1)^k 2^{2k+1} u^k with u the degree-4
    generator; odd indices vanish.
    """
    if _integer(n, 0, _BAD_INDEX) % 2 == 1:
        return IntPolynomial.zero(HP_GENS)
    k = n // 2
    u = IntPolynomial.generator(HP_GENS, "u")
    return ((-1) ** k * 2 ** (2 * k + 1)) * u**k


def torus_kappa(n: int) -> IntPolynomial:
    """kappa_n of the universal torus bundle.

    All of them vanish; kappa_0 in particular is the fiber Euler
    characteristic, which is 0 for the torus.
    """
    _integer(n, 0, _BAD_INDEX)
    return IntPolynomial.zero(TORUS_GENS)


def torus_lambda(n: int) -> IntPolynomial:
    """lambda_n of the universal torus bundle: (-1)^n (1 - 2^n) u^n."""
    _integer(n, 0, _BAD_INDEX)
    u = IntPolynomial.generator(TORUS_GENS, "u")
    return ((-1) ** n * (1 - 2**n)) * u**n


def sphere_lambda(n: int) -> QuotientedPolynomial:
    """lambda_n of the universal sphere bundle in Z[c2, c3] / (2 c3).

    For n >= 1 it is the power sum p_n of the roots of t^3 + c2 t - c3, by
    Girard-Waring p_n = sum_{2i + 3j = n} (-1)^i (n / (i + j)) C(i + j, i)
    c2^i c3^j; the Newton recursion p_n = -c2 p_{n-2} + c3 p_{n-3} agrees.
    The j = 0 term is (-1)^i 2.  A c3 term counts only by the parity of
    n C(i + j - 1, i) / j, which is odd exactly when v2(n) + s(i) + s(j - 1)
    - s(i + j - 1) = v2(j), s being the binary digit sum (Kummer).
    lambda_0 is the rank of the index bundle, 2, not the power sum s_0 = 3;
    at n = 0 the j = 0 term alone gives it.
    """
    _integer(n, 0, _BAD_INDEX)
    terms = {(n // 2, 0): (-1) ** (n // 2) * 2} if n % 2 == 0 else {}
    for j in range(2 - n % 2, n // 3 + 1, 2):  # 2i = n - 3j is even
        i = (n - 3 * j) // 2
        carries = i.bit_count() + (j - 1).bit_count() - (i + j - 1).bit_count()
        if (n & -n) << carries == j & -j:  # 2^(v2(n) + carries) == 2^v2(j)
            terms[i, j] = 1
    return QuotientedPolynomial(IntPolynomial(QUOTIENT_GENS, terms))


def lambda_kappa_difference(n: int) -> QuotientedPolynomial:
    """lambda_n - kappa_n in the quotient ring: kappa_2k = 2 p1^k goes to
    (-1)^k 2 c2^k under p1 -> -c2, lambda_n's c3-free term, so the difference
    is lambda_n's c3 terms, each of coefficient 1 and so killed by 2."""
    terms = {e: c for e, c in sphere_lambda(n).terms.items() if e[1]}
    return QuotientedPolynomial(IntPolynomial(QUOTIENT_GENS, terms))


class RiemannRochDim(namedtuple("RiemannRochDim", "genus power dimension")):
    """Kernel dimension of dbar on the m-th power of the canonical bundle."""

    __slots__ = ()


def riemann_roch_dim(g: int, m: int) -> RiemannRochDim:
    """dim ker dbar_{Lambda^m} on a genus-g surface: h^0 of K^m.

    K^m is trivial at m = 0 and on the torus, and h^0(K) = g.  Otherwise K^m
    or K^(1-m) has negative degree and no sections, so the kernel is the
    index (2m - 1)(g - 1) where that is positive and 0 where it is not."""
    _integer(g, 0, "genus must be nonnegative")
    if _integer(m) == 0 or g == 1:
        dim = 1
    elif m == 1:
        dim = g
    else:
        dim = max(0, (2 * m - 1) * (g - 1))
    return RiemannRochDim(g, m, dim)


def cokernel_dim(g: int, m: int) -> int:
    """dim coker dbar_{Lambda^m} = dim ker dbar_{Lambda^{1-m}} (Serre duality)."""
    return riemann_roch_dim(g, 1 - _integer(m)).dimension


def serre_duality_check(g: int, m: int) -> bool:
    """Index identity dim ker - dim coker = (2m - 1)(g - 1)."""
    ker = riemann_roch_dim(g, m).dimension
    coker = cokernel_dim(g, m)
    return ker - coker == (2 * m - 1) * (g - 1)

