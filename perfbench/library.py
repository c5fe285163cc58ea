"""The two in-process workloads, built from spincalc's public names only.

library_sweep: table building.  Many small calls per pass; arguments repeat
within a pass (Bernoulli indices, polynomial degrees) and every pass repeats
the previous one's forms and grid, so a cache would pay off here.

library_deep: a few large calls per pass and no argument repeats within a
run (Bernoulli indices walk the range with a stride coprime to its length,
forms and documents are drawn fresh, planted multiplicities step through
distinct values), so only a faster algorithm pays off.

Every op is a zero-argument call plus a check against perfbench.oracles.
Calls look the function up on the spincalc package when they run, so a
tracer installed between passes sees them.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

import oracles

Op = namedtuple("Op", "kind call check")

BERNOULLI_MAX = 220  # largest k a deep run of under 64 passes asks for


def _call(S, name, *args, **kwargs):
    return lambda: getattr(S, name)(*args, **kwargs)


def _same_terms(poly, expected: dict) -> bool:
    return oracles.terms_of(poly.json_terms()) == expected


# ------------------------------------------------------------------ checks


def check_icosa(k):
    readme = {1: Fraction(1, 3), 3: Fraction(11, 12)}  # values the README prints

    def check(res):
        pairs = list(res.data.pairs)
        profiles = [list(p.s_values) for p in res.rep.profiles]
        if list(res.fixed_points.traces()) != [2 - f for f in res.fixed_points.counts]:
            return False
        if res.rep.scalar_exponent is None:
            value = oracles.e_direct(pairs, profiles)
            order_ok = res.order == oracles.order24(value)
        else:
            value = oracles.e_power_sums(pairs, res.rep.dimension, profiles)
            order_ok = tuple(res.order_constraint) == (6, 12, 24)
        return order_ok and value == readme.get(k, value) and res.value.residue == value

    return check


def _check_witness(g, bv1, bv2):
    same = oracles.arf(g, bv1) == oracles.arf(g, bv2)

    def check(res):
        found, cols = res
        if not same:
            return found is False and cols is None
        return found is True and oracles.witness_ok(g, bv1, bv2, cols)

    return check


def _check_rr(g, m):
    return lambda rec: rec.dimension == oracles.h0(g, m) and rec.genus == g and rec.power == m


def check_seifert(pairs):
    obs = oracles.obstruction(pairs)

    def check(doc):
        return (
            doc["pairs"] == [list(p) for p in pairs]
            and Fraction(doc["obstruction"]) == obs
            and doc["is_integral_homology_sphere"] == (abs(obs) == 1)
        )

    return check


def check_einvariant_doc(doc_in):
    """Check an einvariant_document result against the oracle formulas."""
    pairs, n, r, profiles = oracles.bundle_from_doc(doc_in)
    if r is None:
        expect, kind = oracles.e_direct(pairs, profiles), "e"
    else:
        expect, kind = oracles.e_power_sums(pairs, n, profiles), "two_re_times_n_e"

    def check(doc):
        return (
            doc["kind"] == kind
            and oracles.residue_of(doc["e_invariant"]) == expect
            and doc["order"] == oracles.order24(expect)
            and doc["N"] == n
        )

    return check


# ------------------------------------------------------------------ inputs


def seifert_pairs(rng: random.Random) -> list[tuple[int, int]]:
    """Coprime pairs; one time in three a known homology sphere."""
    spheres = ([(2, -1), (3, 1), (5, 1)], [(2, -1), (3, 1), (7, 1)], [(2, 1), (3, 1), (5, -4)])
    if rng.random() < 1 / 3:
        return list(rng.choice(spheres))
    out = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(1, 12)
        b = rng.choice([b for b in range(-12, 13) if math.gcd(a, b) == 1])
        out.append((a, b))
    return out


def bundle_doc(rng: random.Random, n: int, scalar: bool) -> dict:
    """A flat-bundle document with N = n.

    Scalar-centre documents live on the Poincare sphere and trivial-centre
    ones on Sigma(2,3,7).  Odd fibers give integer exponents and even fibers
    rational s-values over n, so both input forms are parsed and documents
    of one kind cost alike whatever the seed.
    """
    pairs = [[2, -1], [3, 1], [5, 1]] if scalar else [[2, -1], [3, 1], [7, 1]]
    profiles = []
    for j, (a, _) in enumerate(pairs, start=1):
        if j % 2:
            profiles.append({"fiber": j, "exponents": [rng.randrange(n * a) for _ in range(n)]})
        else:
            s = [str(Fraction(rng.randrange(4 * a * n), n)) for _ in range(n)]
            profiles.append({"fiber": j, "s_values": s})
    center = {"scalar_exponent": rng.randrange(1, n)} if scalar else "trivial"
    return {"pairs": pairs, "N": n, "center": center, "profiles": profiles}


def gram_form(S, rng: random.Random, g: int):
    """A form with a non-standard Gram matrix and a known Arf invariant.

    A standard form q0 is pushed through T = random_symplectic(g) composed
    with a coordinate permutation P: the new basis vectors are T(P e_i), the
    Gram rows are their pairings and the basis values q0 on them.  The form
    is isomorphic to q0, so it keeps q0's Arf invariant.
    """
    bv0 = rng.randrange(1 << (2 * g))
    cols = S.random_symplectic(g, rng)
    perm = list(range(2 * g))
    rng.shuffle(perm)
    images = [cols[perm[i]] for i in range(2 * g)]
    gram = tuple(
        sum(oracles.pair(g, images[i], images[j]) << j for j in range(2 * g))
        for i in range(2 * g)
    )
    bv = sum(oracles.q_value(g, bv0, v) << i for i, v in enumerate(images))
    return S.QuadraticForm(g, bv, gram), oracles.arf(g, bv0)


# ------------------------------------------------------------------ passes


def _repeated_indices(rng: random.Random, top: int) -> list[int]:
    """1..top once each, plus three seeded repeats from every block of ten."""
    ks = list(range(1, top + 1))
    for lo in range(1, top + 1, 10):
        ks += rng.sample(range(lo, min(lo + 10, top + 1)), 3)
    return ks


def _row(S, *calls):
    """One table row: several public calls on the same argument."""
    return lambda: tuple(getattr(S, name)(*args) for name, args in calls)


def sweep_pass(S, rng: random.Random, table) -> list[Op]:
    """One pass of table building; each op computes one table row."""
    ops = []
    for k in _repeated_indices(rng, 60):
        ops.append(Op("bernoulli_row", _row(S, ("bernoulli_quotient", (k,)), ("von_staudt_den", (k,)),
                                            ("divisor_oriented", (k,)), ("divisor_spin", (k,))),
                      lambda v, k=k: oracles.quotient_ok(k, v[0], table)
                      and v[1] == oracles.von_staudt_den(k)
                      and v[2] == oracles.divisor_oriented(k)
                      and (v[3].spin_divisor, v[3].spin_maximality) == oracles.divisor_spin(k)
                      and v[3].oriented_divisor == v[2]))
    for n in [rng.randrange(lo, lo + 10) for lo in range(0, 60, 10)] * 2:
        ops.append(Op("proj_bundle_kappa", _call(S, "proj_bundle_kappa", n),
                      lambda p, n=n: _same_terms(p, oracles.proj_kappa(n))))
    for n in [rng.randrange(lo, lo + 37) for lo in range(1, 297, 37)] * 2:
        ops.append(Op("sphere_lambda", _call(S, "sphere_lambda", n),
                      lambda p, n=n: _same_terms(p, oracles.sphere_lambda(n))))
    for n in [rng.randrange(lo, lo + 6) for lo in range(1, 60, 6)] * 2:
        ops.append(Op("lambda_kappa_difference", _call(S, "lambda_kappa_difference", n),
                      lambda p, n=n: _same_terms(p, oracles.lambda_kappa_difference(n))
                      and (p + p).is_zero))
    for g in range(0, 11):
        for m in range(-10, 11):
            ops.append(Op("riemann_roch_row", _row(S, ("riemann_roch_dim", (g, m)),
                                                   ("serre_duality_check", (g, m))),
                          lambda v, g=g, m=m: _check_rr(g, m)(v[0]) and v[1] is True))
    for g in range(1, 6):
        ops.append(Op("count_by_arf", _call(S, "count_by_arf", g),
                      lambda v, g=g: tuple(v) == oracles.census(g)))
        for bv in range(1 << (2 * g)):
            form = S.QuadraticForm(g, bv)
            ops.append(Op("form_row", _row(S, ("arf_basis", (form,)), ("arf_gauss", (form,)),
                                           ("count_zeros", (form,))),
                          lambda v, g=g, a=oracles.arf(g, bv): v[0].additive == a
                          and v[1].additive == a and v[1].multiplicative == (-1) ** a
                          and v[2] == oracles.zeros(g, a)))
    for _ in range(12):
        g = rng.choice((1, 2))
        bv1, bv2 = rng.randrange(1 << (2 * g)), rng.randrange(1 << (2 * g))
        ops.append(Op("forms_isomorphic", _call(S, "forms_isomorphic", S.QuadraticForm(g, bv1),
                                                S.QuadraticForm(g, bv2), witness=True),
                      _check_witness(g, bv1, bv2)))
    for k in (1, 2, 3):
        ops.append(Op("icosahedral_example", _call(S, "icosahedral_example", k), check_icosa(k)))
    for n in range(11):
        ops.append(Op("stabilized_e", _call(S, "stabilized_e", n),
                      lambda v, n=n: v.residue == oracles.stabilized(n)))
    for _ in range(10):
        pairs = seifert_pairs(rng)
        ops.append(Op("seifert_check_document",
                      _call(S, "seifert_check_document", {"pairs": [list(p) for p in pairs]}),
                      check_seifert(pairs)))
    return ops


def _census(S, g):
    def run():
        return [
            (q.basis_values, S.arf_gauss(q).additive, S.count_zeros(q))
            for q in S.enumerate_forms(g)
        ]

    def check(rows):
        plus = sum(1 for _, a, _ in rows if a == 0)
        return (
            len(rows) == 4**g
            and (plus, len(rows) - plus) == oracles.census(g)
            and all(a == oracles.arf(g, bv) and z == oracles.zeros(g, a) for bv, a, z in rows)
        )

    return Op("census_g6", run, check)


def _spread(j: int) -> int:
    """j -> 0..48 in van der Corput order, so that every prefix of j
    spreads evenly over the range."""
    bits = 0
    for i in range(5):
        bits |= ((j >> i) & 1) << (4 - i)
    return bits * 50 // 32


def deep_pass(S, rng: random.Random, index: int, offsets: tuple[int, int], table) -> list[Op]:
    """Pass `index` of a run; `offsets` (0..1, 0..30) are drawn once per run.

    No argument repeats within a run.  Passes 2j and 2j + 1 compute the
    Bernoulli numbers 120 + 2 _spread(j) and the next one, in a seeded
    order, so even and odd passes cost alike; past 64 passes k runs on
    beyond 220.  Planted multiplicities step through 0..30, then the
    dimension grows.  Forms and documents are drawn fresh.  `table` is
    extended in place when k outgrows it.
    """
    if index < 64:
        k = 120 + 2 * _spread(index // 2) + (index + offsets[0]) % 2
    else:
        k = 157 + index
    if k >= len(table):
        table[:] = oracles.bernoulli_table(2 * k)
    ops = [Op("bernoulli_paper", _call(S, "bernoulli_paper", k),
              lambda v, k=k: oracles.bernoulli_ok(k, v, table))]
    if index == 0:
        ops.append(_census(S, 6))
    for _ in range(3):
        form, a = gram_form(S, rng, 8)
        ops.append(Op("arf_gauss_g8", _call(S, "arf_gauss", form), lambda v, a=a: v.additive == a))
        ops.append(Op("count_zeros_g8", _call(S, "count_zeros", form),
                      lambda v, a=a: v == oracles.zeros(8, a)))
        ops.append(Op("arf_basis_g8", _call(S, "arf_basis", form), lambda v, a=a: v.additive == a))
    for n in (60, 120):
        for scalar in (False, True):
            doc = bundle_doc(rng, n, scalar)
            ops.append(Op(f"einvariant_N{n}_{'scalar' if scalar else 'trivial'}",
                          _call(S, "einvariant_document", doc), check_einvariant_doc(doc)))
    u, dim = (offsets[1] + 7 * index) % 31, 120 + 4 * (index // 31)
    ops.append(Op("multiplicity_solve_m5",
                  _call(S, "multiplicity_solve", 5, dim, dim - 5 * u, (0, 1, 2, 3, 4)),
                  lambda v, u=u, dim=dim: tuple(v) == (dim - 4 * u, u, u, u, u)))
    ops.append(Op("multiplicity_solve_m10",
                  _call(S, "multiplicity_solve", 10, dim, 5 * u - dim, (1, 3, 5, 7, 9)),
                  lambda v, u=u, dim=dim: tuple(v) == (u, u, dim - 4 * u, u, u)))
    return ops
