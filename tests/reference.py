"""Definitional routes that only the tests use.

Each function here recomputes a quantity the library computes another way,
or checks a property the library assumes, by the plainest route available:
the whole symplectic group Sp(2g, F2) by backtracking, the binary
icosahedral group's quotient by its centre as explicit cosets, and so on.
"""

from __future__ import annotations

from functools import cache

from spincalc.cyclotomic import element
from spincalc.errors import DomainError, WitnessSearchError
from spincalc.exact_arith import DivisibilityBound, bernoulli_quotient, von_staudt_den
from spincalc.f2_forms import QuadraticForm
from spincalc.icosa_group import IDENTITY, P, enumerate_group, inv, mul

# ------------------------------------------------------------------ f2_forms


def is_symplectic(g: int, cols: tuple[int, ...]) -> bool:
    """Does the map preserve the standard pairing on all basis pairs."""
    pair = QuadraticForm(g, 0).pair
    n = 2 * g
    return all(
        pair(cols[i], cols[j]) == pair(1 << i, 1 << j)
        for i in range(n)
        for j in range(i + 1, n)
    )


@cache
def symplectic_group(g: int) -> tuple[tuple[int, ...], ...]:
    """All of Sp(2g, F2) as column tuples; only tractable for g <= 2."""
    if g > 2:
        raise WitnessSearchError("symplectic group enumeration is limited to g <= 2")
    pair = QuadraticForm(g, 0).pair
    n = 2 * g
    members = []

    def build(cols: list[int]) -> None:
        if len(cols) == n:
            members.append(tuple(cols))
            return
        i = len(cols)
        for v in range(1, 1 << n):
            if all(pair(cols[j], v) == pair(1 << j, 1 << i) for j in range(i)):
                build(cols + [v])

    build([])
    return tuple(members)


# --------------------------------------------------------------- icosa_group


def neg(x):
    return tuple(-v % P for v in x)


def subgroup_is_perfect(elements) -> bool:
    """Is the commutator subgroup of the given subgroup the whole subgroup.

    Negative controls such as the centre or a cyclic subgroup run through
    the same closure computation and come back False.
    """
    subgroup = tuple(elements)
    members = set(subgroup)
    commutators = {
        mul(mul(x, y), mul(inv(x), inv(y))) for x in subgroup for y in subgroup
    }
    if not commutators <= members:
        raise DomainError("input is not closed under commutators; not a subgroup?")
    closure = set(commutators) | {IDENTITY}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for y in commutators:
            z = mul(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return closure == members


def cyclic_subgroup(x):
    out = [IDENTITY]
    y = x
    while y != IDENTITY:
        out.append(y)
        y = mul(y, x)
    return tuple(out)


def coset(g):
    return frozenset((g, neg(g)))


@cache
def quotient_cosets():
    seen = set()
    out = []
    for g in enumerate_group():
        c = coset(g)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return tuple(out)


def fixed_coset_count(x) -> int:
    """Number of cosets {g, -g} fixed by left translation by x."""
    count = 0
    for c in quotient_cosets():
        g = next(iter(c))
        if mul(x, g) in c:
            count += 1
    return count


def doubled_pullback_regular_character(x) -> int:
    """Character of twice the pullback of the order-60 regular representation,
    evaluated by counting fixed cosets: 120 on the center, 0 elsewhere."""
    return 2 * fixed_coset_count(x)


# --------------------------------------------------------------- exact_arith


def divisor_spin_by_parity(n: int) -> DivisibilityBound:
    """The spin divisor of kappa_n by the two cases of the paper: 2^{2m+1} at
    even n = 2m, proven maximal, and 2^{2m} * den(B_m / 2m) at odd
    n = 2m - 1, a lower bound only."""
    if n % 2 == 0:
        m = n // 2
        return DivisibilityBound(n, 2, 2 ** (2 * m + 1), "proven_maximal")
    m = (n + 1) // 2
    den = von_staudt_den(m)
    return DivisibilityBound(n, den, 2 ** (2 * m) * den, "lower_bound_only")


# -------------------------------------------------------------- char_classes


def odd_symplectic_constant(k: int):
    """The rational constant tying s_{2k-1} to kappa_{2k-1}: B_k / 2k."""
    return bernoulli_quotient(k)


def check_odd_symplectic_identity(s_poly, kappa_poly, k: int) -> bool:
    """Verify s_{2k-1} = (B_k / 2k) * kappa_{2k-1} by clearing denominators."""
    c = odd_symplectic_constant(k)
    return c.denominator * s_poly == c.numerator * kappa_poly


# ---------------------------------------------------------------- cyclotomic


def zeta_power(m: int, k: int) -> tuple[int, ...]:
    """x^k reduced mod Phi_m, as a coefficient tuple of length deg Phi_m."""
    return element(m, {k: 1})
