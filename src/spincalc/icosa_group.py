"""The binary icosahedral group, modeled as SL2(F5).

Elements are row-major tuples (a, b, c, d) of residues mod P with
determinant 1.  P = 5 is the model's one written-in fact: the order 120,
the center {I, -I}, the branch orders (2, 3, P) and the presentation triple
are computed from it.  The quotient by the center is A5, of order 60.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import DomainError, WitnessSearchError, _integer

P = 5
# (2, 3, P) generates PSL(2, P), as the image of the modular group.
BRANCH_ORDERS = (2, 3, P)

IDENTITY = (1, 0, 0, 1)
MINUS_IDENTITY = (P - 1, 0, 0, P - 1)

Element = tuple[int, int, int, int]


def mul(x: Element, y: Element) -> Element:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % P,
        (a * f + b * h) % P,
        (c * e + d * g) % P,
        (c * f + d * h) % P,
    )


def inv(x: Element) -> Element:
    a, b, c, d = x
    return (d % P, -b % P, -c % P, a % P)


def power(x: Element, k: int) -> Element:
    """x^k for k >= 0, by repeated squaring."""
    out = IDENTITY
    base = x
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


@lru_cache(maxsize=None)
def enumerate_group() -> tuple[Element, ...]:
    """All P(P^2 - 1) elements in sorted order, filtered from the P^4 tuples."""
    tuples = itertools.product(range(P), repeat=4)
    return tuple(x for x in tuples if (x[0] * x[3] - x[1] * x[2]) % P == 1)


def element_order(x: Element) -> int:
    y = x
    for k in range(1, len(enumerate_group()) + 1):
        if y == IDENTITY:
            return k
        y = mul(y, x)
    raise DomainError("element order exceeds the group order")


def element_order_census() -> dict[int, int]:
    census: dict[int, int] = {}
    for g in enumerate_group():
        k = element_order(g)
        census[k] = census.get(k, 0) + 1
    return dict(sorted(census.items()))


def center_elements() -> tuple[Element, ...]:
    group = enumerate_group()
    return tuple(g for g in group if all(mul(g, h) == mul(h, g) for h in group))


def verify_perfect() -> bool:
    """Do the commutators generate the group?  One outside the subgroup they
    generate so far joins its generators, and the subgroup is closed again."""
    group = enumerate_group()
    subgroup, generators = {IDENTITY}, []
    for x, y in itertools.product(group, repeat=2):
        c = mul(mul(x, y), mul(inv(x), inv(y)))
        if c not in subgroup:
            generators.append(c)
            new = set(subgroup)
            while new:
                new = {mul(u, v) for u in new for v in generators} - subgroup
                subgroup |= new
            if len(subgroup) == len(group):
                return True
    return False


class PresentationTriple(namedtuple("PresentationTriple", "h x1 x2 x3")):
    """Witness for the presentation with x1^2 = x2^3 = x3^P = h central
    and x1 x2 x3 = 1; each entry is an Element."""

    __slots__ = ()


def find_presentation_triple() -> PresentationTriple:
    """The lifts x1 = [[0,1],[-1,0]], x2 = [[0,1],[-1,1]] and x3 = (x1 x2)^-1
    = -[[1,1],[0,1]] of the modular group's generators, with h = -I.  Every
    relation is asserted literally on them: orders (4, 6, 2P), x1^2 = x2^3 =
    x3^P = h, h central, and x1 x2 x3 = 1."""
    h, x1, x2 = MINUS_IDENTITY, (0, 1, P - 1, 0), (0, 1, P - 1, 1)
    x3 = inv(mul(x1, x2))
    triple = (x1, x2, x3)
    if (
        [element_order(x) for x in triple] != [2 * m for m in BRANCH_ORDERS]
        or any(power(x, m) != h for x, m in zip(triple, BRANCH_ORDERS))
        or any(mul(x, h) != mul(h, x) for x in triple)
        or mul(mul(x1, x2), x3) != IDENTITY
    ):
        raise WitnessSearchError("the modular generators' lifts break a relation")
    return PresentationTriple(h, x1, x2, x3)


class RestrictionProfile(
    namedtuple("RestrictionProfile", "order copies exponent_multiplicities")
):
    """Restriction of the doubled pullback regular representation to a cyclic
    subgroup of order m of the quotient by the center: |G|/m copies of that
    cyclic group's regular representation.  exponent_multiplicities maps
    each eigenvalue exponent j in 0..m-1 to its number of copies."""

    __slots__ = ()


def regular_restriction_profile(m: int) -> RestrictionProfile:
    """Closed form, m in BRANCH_ORDERS: the doubled pullback character is |G|
    on the center and 0 elsewhere, so each eigenvalue exponent has |G|/m copies."""
    if _integer(m) not in BRANCH_ORDERS:
        raise DomainError(f"cyclic restriction order must be 2, 3, or {P}")
    copies = len(enumerate_group()) // m
    return RestrictionProfile(m, copies, {j: copies for j in range(m)})
