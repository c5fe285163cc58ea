"""The binary icosahedral group, modeled as SL2(F5).

Elements are row-major tuples (a, b, c, d) of residues mod 5 with
determinant 1.  The group has order 120, a unique element of order 2
(minus the identity, which generates the center), and its quotient by the
center is the alternating group A5 of order 60.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import DomainError, WitnessSearchError

P = 5

IDENTITY = (1, 0, 0, 1)
MINUS_IDENTITY = (4, 0, 0, 4)

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
    if k < 0:
        return power(inv(x), -k)
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
    """All 120 elements, found by filtering the 625 candidate tuples."""
    members = []
    for a in range(P):
        for b in range(P):
            for c in range(P):
                for d in range(P):
                    if (a * d - b * c) % P == 1:
                        members.append((a, b, c, d))
    return tuple(sorted(members))


def element_order(x: Element) -> int:
    y = x
    for k in range(1, 121):
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
    """Is the group its own commutator subgroup: do the commutators generate
    all 120 elements."""
    group = enumerate_group()
    commutators = {mul(mul(x, y), mul(inv(x), inv(y))) for x in group for y in group}
    closure = set(commutators) | {IDENTITY}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for y in commutators:
            z = mul(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return closure == set(group)


class PresentationTriple(namedtuple("PresentationTriple", "h x1 x2 x3")):
    """Witness for the presentation with x1^2 = x2^3 = x3^5 = h central
    and x1 x2 x3 = 1; each entry is an Element."""

    __slots__ = ()


def find_presentation_triple() -> PresentationTriple:
    """Search the group for elements of orders 4, 6, 10 whose product is the
    identity and whose relevant powers all equal the central involution.

    Every relation is asserted literally on the found triple rather than
    inferred from order bookkeeping.
    """
    group = enumerate_group()
    h = MINUS_IDENTITY
    order4 = [g for g in group if element_order(g) == 4]
    order6 = [g for g in group if element_order(g) == 6]
    for x1 in order4:
        for x2 in order6:
            x3 = inv(mul(x1, x2))
            if element_order(x3) != 10:
                continue
            if power(x1, 2) != h or power(x2, 3) != h or power(x3, 5) != h:
                continue
            if mul(mul(x1, x2), x3) != IDENTITY:
                continue
            if any(mul(x, h) != mul(h, x) for x in (x1, x2, x3)):
                continue
            return PresentationTriple(h, x1, x2, x3)
    raise WitnessSearchError("no presentation triple found")


class RestrictionProfile(
    namedtuple("RestrictionProfile", "order copies exponent_multiplicities")
):
    """Restriction of the doubled pullback regular representation to a cyclic
    subgroup of order m of the order-60 quotient: 120/m copies of that cyclic
    group's regular representation.  exponent_multiplicities maps each
    eigenvalue exponent j in 0..m-1 to its number of copies."""

    __slots__ = ()


def regular_restriction_profile(m: int) -> RestrictionProfile:
    """Closed form, m in (2, 3, 5): the doubled pullback character is 120 on
    the center and 0 elsewhere, so each eigenvalue exponent has 120/m copies."""
    if m not in (2, 3, 5):
        raise DomainError("cyclic restriction order must be 2, 3, or 5")
    copies = 120 // m
    return RestrictionProfile(m, copies, {j: copies for j in range(m)})
