"""Definitional routes that only the tests use.

Each function here recomputes a quantity the library computes another way,
or checks a property the library assumes, by the plainest route available:
the whole symplectic group Sp(2g, F2) by backtracking, the binary
icosahedral group's quotient by its centre as explicit cosets, and so on.
"""

from __future__ import annotations

from functools import cache

from spincalc.cyclotomic import element
from spincalc.errors import DegeneratePairingError, DomainError, WitnessSearchError
from spincalc.exact_arith import DivisibilityBound, bernoulli_quotient, von_staudt_den
from spincalc.f2_forms import QuadraticForm, standard_gram
from spincalc.icosa_group import IDENTITY, P, enumerate_group, inv, mul
from spincalc.polynomials import QUOTIENT_GENS, IntPolynomial

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


def gram_pair(gram, x, y):
    """x.y summed row by row: x_i (row_i . y) over the set bits i of x."""
    acc = 0
    for i, row in enumerate(gram):
        if (x >> i) & 1:
            acc ^= (row & y).bit_count() & 1
    return acc


def loop_symplectic_basis(gram):
    """Symplectic Gram-Schmidt that pairs every vector with gram_pair.

    The reference for symplectic_basis, which must make the same choices
    in the same order and so return the same list.
    """
    candidates = [1 << i for i in range(len(gram))]
    a_side = []
    b_side = []
    while candidates:
        v = candidates.pop(0)
        partner_at = next(
            (k for k, u in enumerate(candidates) if gram_pair(gram, v, u) == 1), None
        )
        if partner_at is None:
            raise DegeneratePairingError("vector with no symplectic partner")
        w = candidates.pop(partner_at)
        a_side.append(v)
        b_side.append(w)
        candidates = [
            u
            ^ (v if gram_pair(gram, u, w) else 0)
            ^ (w if gram_pair(gram, u, v) else 0)
            for u in candidates
        ]
    return a_side + b_side


def expanded_value(q, x):
    """q(sum x_i e_i) = sum x_i q(e_i) + sum_{i<j} x_i x_j B_ij, term by term."""
    n = q.dim
    gram = q.gram or standard_gram(q.g)
    bits = [(x >> i) & 1 for i in range(n)]
    value = sum(bits[i] * ((q.basis_values >> i) & 1) for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            value += bits[i] * bits[j] * ((gram[i] >> j) & 1)
    return value & 1


def normal_values(q):
    """q's values on loop_symplectic_basis, each by expanded_value, packed
    like basis_values: the values of normalize(q)."""
    basis = loop_symplectic_basis(q.gram or standard_gram(q.g))
    return sum(expanded_value(q, v) << i for i, v in enumerate(basis))


def arf_of_values(g, values):
    """sum_i q(a_i) q(b_i) mod 2, term by term, from values in a symplectic
    basis packed like basis_values."""
    return sum((values >> i) & (values >> (g + i)) & 1 for i in range(g)) % 2


def zeros_by_enumeration(q):
    """The number of vectors x with q(x) = 0, each one by expanded_value."""
    return sum(1 - expanded_value(q, x) for x in range(1 << (2 * q.g)))


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


# ------------------------------------------------------------- polynomials
# Z[c2, c3] / (2 c3) by its definition: plain IntPolynomial arithmetic over
# QUOTIENT_GENS, reduced mod 2 c3 after every operation.


def reduce_mod_2c3(poly: IntPolynomial) -> IntPolynomial:
    """The reduced representative: c3-monomial coefficients read mod 2."""
    terms = {}
    for (e2, e3), coeff in poly.terms.items():
        if e3 > 0:
            coeff %= 2
        if coeff != 0:
            terms[(e2, e3)] = coeff
    return IntPolynomial(QUOTIENT_GENS, terms)


def reduced_sphere_lambdas(n_max: int) -> list[IntPolynomial]:
    """lambda_0 .. lambda_{n_max} by the Newton recursion, reducing each step."""
    r = reduce_mod_2c3
    c2 = IntPolynomial.generator(QUOTIENT_GENS, "c2")
    c3 = IntPolynomial.generator(QUOTIENT_GENS, "c3")
    values = [
        IntPolynomial.constant(QUOTIENT_GENS, 2),
        IntPolynomial.zero(QUOTIENT_GENS),
        r(-2 * c2),
        r(3 * c3),
    ]
    for m in range(4, n_max + 1):
        values.append(r(r(r(-c2) * values[m - 2]) + r(c3 * values[m - 3])))
    return values[: n_max + 1]


def reduced_lambda_kappa_difference(n: int) -> IntPolynomial:
    """lambda_n - kappa_n, with kappa_2k = 2 p1^k sent to 2 (-c2)^k."""
    kappa = IntPolynomial.zero(QUOTIENT_GENS)
    if n % 2 == 0:
        kappa = 2 * (-IntPolynomial.generator(QUOTIENT_GENS, "c2")) ** (n // 2)
    return reduce_mod_2c3(reduced_sphere_lambdas(n)[n] - reduce_mod_2c3(kappa))


# ---------------------------------------------------------------- cyclotomic


def zeta_power(m: int, k: int) -> tuple[int, ...]:
    """x^k reduced mod Phi_m, as a coefficient tuple of length deg Phi_m."""
    return element(m, {k: 1})
