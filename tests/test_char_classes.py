"""Tests for the closed-form characteristic classes and the Riemann-Roch dimensions."""

from fractions import Fraction
from itertools import product

import pytest

from spincalc.char_classes import (
    HP_GENS,
    SPHERE_GENS,
    cokernel_dim,
    hp_infinity_kappa,
    lambda_kappa_difference,
    proj_bundle_kappa,
    riemann_roch_dim,
    serre_duality_check,
    sphere_kappa,
    sphere_lambda,
    torus_kappa,
    torus_lambda,
)
from spincalc.errors import DomainError
from spincalc.exact_arith import bernoulli_quotient
from spincalc.polynomials import QUOTIENT_GENS, IntPolynomial, QuotientedPolynomial

from reference import (
    check_odd_symplectic_identity,
    girard_waring_lambda,
    odd_symplectic_constant,
    repeated_products,
    riemann_roch_by_degree,
)


def test_sphere_kappa_closed_form():
    p1 = IntPolynomial.generator(SPHERE_GENS, "p1")
    for n in range(0, 41):
        value = sphere_kappa(n)
        if n % 2 == 1:
            assert value.is_zero
        else:
            assert value == 2 * p1 ** (n // 2)


def test_proj_bundle_kappa():
    assert proj_bundle_kappa(1).is_zero
    assert proj_bundle_kappa(0).render() == "2"
    assert proj_bundle_kappa(2).render() == "2*c1^2 - 8*c2"
    assert proj_bundle_kappa(4).render() == "2*c1^4 - 16*c1^2*c2 + 32*c2^2"


def test_proj_bundle_kappa_matches_repeated_products():
    # 2 (c1^2 - 4 c2)^k at n = 2k, by k products: every n to 60, and 400, 2000
    c1 = IntPolynomial.generator(("c1", "c2"), "c1")
    c2 = IntPolynomial.generator(("c1", "c2"), "c2")
    for k, power in enumerate(repeated_products(c1 * c1 - 4 * c2, 1000)):
        if k <= 30 or k in (200, 1000):
            assert proj_bundle_kappa(2 * k) == 2 * power
            assert proj_bundle_kappa(2 * k + 1).is_zero


def test_hp_kappa_is_proj_kappa_at_split_values():
    # setting c1 = 0 and c2 = u specializes the projectivized-bundle answer
    # to the quaternionic one
    u = IntPolynomial.generator(HP_GENS, "u")
    for n in range(0, 21):
        specialized = proj_bundle_kappa(n).substitute(HP_GENS, {"c1": 0, "c2": u})
        assert hp_infinity_kappa(n) == specialized
        if n % 2 == 0:
            k = n // 2
            assert hp_infinity_kappa(n) == ((-1) ** k * 2 ** (2 * k + 1)) * u**k


def test_torus_classes():
    u = IntPolynomial.generator(("u",), "u")
    for n in range(0, 21):
        assert torus_kappa(n).is_zero
        assert torus_lambda(n) == ((-1) ** n * (1 - 2**n)) * u**n
    assert torus_lambda(0).is_zero
    assert torus_lambda(1) == u
    assert torus_lambda(2) == -3 * u**2
    assert torus_lambda(3) == 7 * u**3


def test_negative_index_rejected():
    for fn in (sphere_kappa, proj_bundle_kappa, hp_infinity_kappa,
               torus_kappa, torus_lambda, sphere_lambda):
        with pytest.raises(DomainError, match="^class index must be nonnegative$"):
            fn(-1)


def test_sphere_lambda_seeds():
    assert sphere_lambda(0).render() == "2"
    assert sphere_lambda(1).is_zero
    assert sphere_lambda(2).render() == "-2*c2"
    # the seed 3*c3 reads as c3 in the quotient
    assert sphere_lambda(3).render() == "c3"
    assert sphere_lambda(4).render() == "2*c2^2"
    assert sphere_lambda(6).render() == "-2*c2^3 + c3^2"


def evaluate(poly, c2, c3):
    """Integer value of a lifted Z[c2, c3] polynomial at an integer point."""
    return sum(
        coeff * c2**e2 * c3**e3 for (e2, e3), coeff in poly.terms.items()
    )


def integer_power_sums(c2, c3, n_max):
    """Power sums of the roots of t^3 + c2 t - c3, for n = 0 .. n_max.

    The roots are the eigenvalues of the companion matrix, so the n-th power
    sum is the trace of its n-th power, computed here in integers.
    """
    companion = ((0, 0, c3), (1, 0, -c2), (0, 1, 0))
    power = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sums = []
    for _ in range(n_max + 1):
        sums.append(power[0][0] + power[1][1] + power[2][2])
        power = tuple(
            tuple(sum(row[k] * companion[k][j] for k in range(3)) for j in range(3))
            for row in power
        )
    return sums


def test_sphere_lambda_matches_newton_power_sums():
    # lambda_n lifts to the n-th power sum of the three Chern roots with
    # c1 = 0, up to the ideal (2 c3); sampling integer points checks the
    # representative against an independent exact computation
    for c2, c3 in product(range(-3, 4), repeat=2):
        sums = integer_power_sums(c2, c3, 6)
        for n in range(1, 7):
            lifted = evaluate(sphere_lambda(n).poly, c2, c3)
            if c3 == 0:
                assert lifted == sums[n]
            else:
                assert (lifted - sums[n]) % (2 * c3) == 0
    # index 0 is the rank 2 of the index bundle, not the power sum 3
    assert evaluate(sphere_lambda(0).poly, 1, 1) == 2


def test_sphere_lambda_parities_match_the_full_binomials():
    # the product reads each c3 coefficient's parity off binary digit sums;
    # the oracle builds the Girard-Waring binomials and reduces them
    for n in [*range(1, 700), 2000, 20000]:
        assert sphere_lambda(n).poly == girard_waring_lambda(n), n


def _kappa_image(n):
    # kappa_n's image under p1 -> -c2 in Z[c2, c3]/(2 c3), built by
    # substitution: the route the product no longer takes
    minus_c2 = -IntPolynomial.generator(QUOTIENT_GENS, "c2")
    return QuotientedPolynomial(sphere_kappa(n).substitute(QUOTIENT_GENS, {"p1": minus_c2}))


def test_lambda_kappa_difference_is_two_torsion():
    # the product reads the difference off lambda's c3 terms; here kappa's
    # image is built by substitution and subtracted
    for n in range(0, 41):
        diff = lambda_kappa_difference(n)
        assert (2 * diff).is_zero
        assert diff == sphere_lambda(n) - _kappa_image(n)


def test_lambda_equals_kappa_indices():
    # the classes agree at 0, 1, 2, 4 and the coincidence recurs at the
    # higher powers of 2 in this range
    equal = {n for n in range(0, 41) if lambda_kappa_difference(n).is_zero}
    assert equal == {0, 1, 2, 4, 8, 16, 32}
    assert equal >= {0, 1, 2, 4}


def test_sphere_kappa_in_quotient():
    assert _kappa_image(2).render() == "-2*c2"
    assert _kappa_image(4).render() == "2*c2^2"
    assert _kappa_image(6).render() == "-2*c2^3"
    assert _kappa_image(3).is_zero


def test_riemann_roch_spot_values():
    assert riemann_roch_dim(0, 0).dimension == 1
    assert riemann_roch_dim(0, 1).dimension == 0
    assert riemann_roch_dim(0, -1).dimension == 3
    assert riemann_roch_dim(3, 1).dimension == 3
    assert riemann_roch_dim(4, 2).dimension == 9
    assert riemann_roch_dim(1, 7).dimension == 1
    assert riemann_roch_dim(1, -7).dimension == 1
    assert riemann_roch_dim(2, -5).dimension == 0
    assert riemann_roch_dim(10, 10).dimension == 19 * 9
    # on the sphere at m <= 0 the dimension is the section count of O(-2m), which
    # the index identity forces; at m = -2 that is 5
    assert riemann_roch_dim(0, -2).dimension == 5


def test_riemann_roch_rejects_negative_genus():
    with pytest.raises(DomainError):
        riemann_roch_dim(-1, 0)


def test_riemann_roch_index_identity_on_the_box():
    for g in range(0, 41):
        for m in range(-40, 41):
            assert serre_duality_check(g, m)
            ker = riemann_roch_dim(g, m).dimension
            assert ker == riemann_roch_by_degree(g, m)
            coker = cokernel_dim(g, m)
            assert ker >= 0 and coker >= 0
            assert ker - coker == (2 * m - 1) * (g - 1)


def test_cokernel_is_kernel_at_complementary_power():
    for g in range(0, 6):
        for m in range(-5, 6):
            assert cokernel_dim(g, m) == riemann_roch_dim(g, 1 - m).dimension


def test_odd_symplectic_constant():
    assert odd_symplectic_constant(1) == Fraction(1, 12)
    assert odd_symplectic_constant(2) == Fraction(1, 120)
    for k in range(1, 8):
        assert odd_symplectic_constant(k) == bernoulli_quotient(k)


def test_check_odd_symplectic_identity():
    p1 = IntPolynomial.generator(SPHERE_GENS, "p1")
    for k in range(1, 6):
        c = bernoulli_quotient(k)
        kappa_poly = c.denominator * (p1**k + 3)
        s_poly = c.numerator * (p1**k + 3)
        assert check_odd_symplectic_identity(s_poly, kappa_poly, k)
        assert not check_odd_symplectic_identity(s_poly + 1, kappa_poly, k)
