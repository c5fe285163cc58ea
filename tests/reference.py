"""Definitional routes that only the tests use.

Each function here recomputes a quantity the library computes another way,
or checks a property the library assumes, by the plainest route available:
the whole symplectic group Sp(2g, F2) by backtracking, the binary
icosahedral group's quotient by its centre as explicit cosets, and so on.
"""

from __future__ import annotations

import math
import types
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from spincalc import icosa_group
from spincalc.cyclotomic import element
from spincalc.errors import DegeneratePairingError, DomainError, WitnessSearchError
from spincalc.exact_arith import DivisibilityBound, bernoulli_quotient, von_staudt_den
from spincalc.icosa_group import IDENTITY, P, enumerate_group, mul
from spincalc.polynomials import QUOTIENT_GENS, IntPolynomial
from spincalc.seifert import multiplicity_solve

# ------------------------------------------------------------------ f2_forms


def standard_gram(g):
    """Gram rows of the standard symplectic pairing in dimension 2g."""
    rows = [1 << (g + i) for i in range(g)]
    rows += [1 << i for i in range(g)]
    return tuple(rows)


def coordinate_masks(n):
    """C_0 .. C_{n-1} over the 2^n vectors, bit x of C_j being bit j of x,
    each built at once: blocks of 2^j zeros under 2^j ones repeat from bit 0
    up to bit 2^n, so C_j is the all-ones int divided by 2^(2^(j+1)) - 1,
    times one block."""
    full = (1 << (1 << n)) - 1
    masks = []
    for j in range(n):
        width = 1 << j
        masks.append(full // ((1 << (2 * width)) - 1) * (((1 << width) - 1) << width))
    return tuple(masks)


def form_values_by_masks(g, basis_values):
    """The value table of the standard form of genus g with these basis values,
    as the XOR of the pair part sum_i C_{a_i} & C_{b_i} and the coordinate
    masks C_j at the set bits j of basis_values, one mask at a time."""
    masks = coordinate_masks(2 * g)
    table = 0
    for i in range(g):
        table ^= masks[i] & masks[g + i]
    for j in range(2 * g):
        if (basis_values >> j) & 1:
            table ^= masks[j]
    return table


def apply_map(cols: tuple[int, ...], x: int) -> int:
    """Image of x under the linear map whose i-th column is cols[i]."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= cols[i]
        x >>= 1
        i += 1
    return out


def is_symplectic(g: int, cols: tuple[int, ...]) -> bool:
    """Does the map preserve the standard pairing on all basis pairs."""
    pair = partial(gram_pair, standard_gram(g))
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
    pair = partial(gram_pair, standard_gram(g))
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

    The reference for the basis that f2_forms._reduce returns, which must
    make the same choices in the same order and so return the same list.
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


def subgroup_is_perfect(elements, g=icosa_group) -> bool:
    """Is the commutator subgroup of the given subgroup of the group model g
    the whole subgroup: all |H|^2 commutators, closed under products.

    Negative controls such as the centre or a cyclic subgroup run through
    the same closure computation and come back False.
    """
    subgroup = tuple(elements)
    members = set(subgroup)
    commutators = {
        g.mul(g.mul(x, y), g.mul(g.inv(x), g.inv(y))) for x in subgroup for y in subgroup
    }
    if not commutators <= members:
        raise DomainError("input is not closed under commutators; not a subgroup?")
    closure = set(commutators) | {g.IDENTITY}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for y in commutators:
            z = g.mul(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return closure == members


@cache
def icosa_group_at(p: int) -> types.ModuleType:
    """icosa_group's own source, run as a module of package spincalc with its
    one written-in fact, the line P = 5, replaced by P = p."""
    source = Path(icosa_group.__file__).read_text()
    assert source.splitlines().count("P = 5") == 1
    module = types.ModuleType(f"spincalc.icosa_group_at_{p}")
    module.__package__ = "spincalc"
    source = source.replace("\nP = 5\n", f"\nP = {p}\n")
    exec(compile(source, icosa_group.__file__, "exec"), module.__dict__)
    return module


def sl2_order_census(q: int) -> dict[int, int]:
    """Element orders of SL(2, q), q an odd prime, from its class sizes: one
    each of I and -I, q^2 - 1 each of orders q and 2q, and phi(d)/2 q(q+1) or
    phi(d)/2 q(q-1) of each order d > 2 that divides q - 1 or q + 1."""
    census = {1: 1, 2: 1, q: q * q - 1, 2 * q: q * q - 1}
    for n, size in ((q - 1, q * (q + 1)), (q + 1, q * (q - 1))):
        for d in range(3, n + 1):
            if n % d == 0:
                phi = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
                census[d] = phi // 2 * size
    return dict(sorted(census.items()))


def triple_relations_hold(g, triple) -> bool:
    """The relations of (h, x1, x2, x3) in the group model g: orders 4, 6 and
    2P, x1^2 = x2^3 = x3^P = h = -I, h central, and x1 x2 x3 = 1."""
    h, x1, x2, x3 = triple
    return (
        h == tuple(-v % g.P for v in g.IDENTITY)
        and [g.element_order(x) for x in (x1, x2, x3)] == [4, 6, 2 * g.P]
        and [g.power(x1, 2), g.power(x2, 3), g.power(x3, g.P)] == [h] * 3
        and all(g.mul(x, h) == g.mul(h, x) for x in (x1, x2, x3))
        and g.mul(g.mul(x1, x2), x3) == g.IDENTITY
    )


def presentation_triples(g=icosa_group):
    """Search oracle for find_presentation_triple: every (h, x1, x2, x3) in
    the group model g whose relations hold, with x1 of order 4 and x2 of
    order 6 each taken in sorted order and x3 = (x1 x2)^-1."""
    group = sorted(g.enumerate_group())
    h = tuple(-v % g.P for v in g.IDENTITY)
    order4 = [x for x in group if g.element_order(x) == 4]
    order6 = [x for x in group if g.element_order(x) == 6]
    for x1 in order4:
        for x2 in order6:
            triple = (h, x1, x2, g.inv(g.mul(x1, x2)))
            if triple_relations_hold(g, triple):
                yield triple


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


def bernoulli_by_tangent_numbers(n: int) -> list[Fraction]:
    """The positive Bernoulli numbers B_1 .. B_n (B_k = |B_2k| classically)
    from the integer tangent numbers: B_k = 2k T_k / (4^k (4^k - 1)).

    T_1 .. T_n come from Brent and Harvey's in-place recurrence ("Fast
    computation of Bernoulli, Tangent and Secant numbers", 2011), which
    never leaves the integers.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction(2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n + 1)]


# -------------------------------------------------------------- char_classes


def odd_symplectic_constant(k: int):
    """The rational constant tying s_{2k-1} to kappa_{2k-1}: B_k / 2k."""
    return bernoulli_quotient(k)


def check_odd_symplectic_identity(s_poly, kappa_poly, k: int) -> bool:
    """Verify s_{2k-1} = (B_k / 2k) * kappa_{2k-1} by clearing denominators."""
    c = odd_symplectic_constant(k)
    return c.denominator * s_poly == c.numerator * kappa_poly


def riemann_roch_by_degree(g: int, m: int) -> int:
    """h^0(K^m) on a genus-g surface, read off the degree d = m(2g - 2) of K^m:
    1 for the trivial bundle, g for K itself, 0 below degree 0, and by
    Riemann-Roch d - g + 1 above degree 2g - 2, where h^1 = h^0(K^(1-m)) = 0."""
    d = m * (2 * g - 2)
    if m == 0 or g == 1:
        return 1
    if m == 1:
        return g
    if d < 0:
        return 0
    if d > 2 * g - 2:
        return d - g + 1
    raise DomainError(f"no degree case covers genus {g}, power {m}")


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


def repeated_products(base, n_max: int):
    """Yield base^0 .. base^{n_max}, one multiplication by base per step."""
    power = base * 0 + 1
    yield power
    for _ in range(n_max):
        power = power * base
        yield power


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


def girard_waring_lambda(n: int) -> IntPolynomial:
    """lambda_n for n >= 1 by Girard-Waring, each binomial built in full and
    the sum reduced mod 2 c3 afterwards."""
    terms = {}
    for j in range(n % 2, n // 3 + 1, 2):
        i = (n - 3 * j) // 2
        terms[i, j] = (-1) ** i * n * math.comb(i + j, i) // (i + j)
    return reduce_mod_2c3(IntPolynomial(QUOTIENT_GENS, terms))


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


# ------------------------------------------------------------------- seifert


def _fiber_sums(d, spec):
    """(a / (2 a_j^2), sum s, sum s^2) for each exceptional fiber j."""
    a = d.a
    for (aj, _), profile in zip(d.pairs, spec.profiles):
        s1 = sum(profile.s_values, Fraction(0))
        s2 = sum((s * s for s in profile.s_values), Fraction(0))
        yield Fraction(a, 2 * aj * aj), s1, s2


def e_simple_by_power_sums(d, spec) -> Fraction:
    """-sum_j a sum_k s_k(j)^2 / (2 a_j^2), before reduction mod Z."""
    return -sum((w * s2 for w, _, s2 in _fiber_sums(d, spec)), Fraction(0))


def e_general_by_power_sums(d, spec) -> Fraction:
    """-sum_j a (2N sum s^2 - 2 (sum s)^2) / (2 a_j^2), before reduction mod
    Z: per fiber, sum_k sum_l (s_k - s_l)^2 = 2N sum s^2 - 2 (sum s)^2."""
    n = spec.dimension
    return -sum(
        (w * (2 * n * s2 - 2 * s1 * s1) for w, s1, s2 in _fiber_sums(d, spec)),
        Fraction(0),
    )


def fiber_multiplicities_by_solve(pair, big_n, r_h, trace) -> dict[int, int]:
    """The multiplicity of each s in 0..a-1 at a fiber (a, b), by search.

    The holonomy x satisfies x^a = h^{-b}, so its eigenvalues are
    zeta_{N a}^{t_s} with t_s = N s - b r_h for s = 0..a-1.  Reduced by
    their common content they are m-th roots of unity, and
    multiplicity_solve finds their multiplicities from the trace in Z[zeta_m].
    """
    a, b = pair
    modulus = big_n * a
    t_list = [(big_n * s - b * r_h) % modulus for s in range(a)]
    content = math.gcd(modulus, *t_list)
    exp_of_s = [t // content for t in t_list]
    mus = multiplicity_solve(modulus // content, big_n, trace, exp_of_s)
    mu_by_exp = dict(zip(sorted(exp_of_s), mus))
    return {s: mu_by_exp[e] for s, e in enumerate(exp_of_s)}
