"""Tests for the Todd series, Bernoulli numbers, and divisibility bounds."""

import math
from fractions import Fraction

import pytest

from spincalc.errors import DomainError
from spincalc.exact_arith import (
    DivisibilityBound,
    ModZ,
    bernoulli_paper,
    bernoulli_quotient,
    divisor_oriented,
    divisor_spin,
    fraction_doc,
    todd_coefficients,
    von_staudt_den,
    von_staudt_factorization,
)

from reference import bernoulli_by_tangent_numbers, divisor_spin_by_parity


def classical_bernoulli(n_max):
    """B_0 .. B_n in the classical convention, by the defining recurrence.

    sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1, starting from B_0 = 1.
    This is an independent route that never touches the Todd series.
    """
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n + 1, j) * b[j] for j in range(n))
        b.append(Fraction(-acc, n + 1))
    return b


def test_todd_series_low_coefficients():
    t = todd_coefficients(6)
    assert t[0] == 1
    assert t[1] == Fraction(1, 2)
    assert t[2] == Fraction(1, 12)
    assert t[3] == 0
    assert t[4] == Fraction(-1, 720)


def test_todd_series_at_degrees_zero_and_one():
    # td(z) = 1 + z/2 + ..., so degree 0 is a valid, one-term truncation
    assert todd_coefficients(0) == [Fraction(1)]
    assert todd_coefficients(1) == [1, Fraction(1, 2)]


def test_todd_series_odd_coefficients_vanish():
    t = todd_coefficients(60)
    for n in range(3, 61, 2):
        assert t[n] == 0


def test_todd_series_even_coefficients_alternate():
    t = todd_coefficients(40)
    for k in range(1, 21):
        assert t[2 * k] != 0
        assert (t[2 * k] > 0) == (k % 2 == 1)


def test_bernoulli_matches_classical_recurrence():
    classical = classical_bernoulli(40)
    for k in range(1, 21):
        assert bernoulli_paper(k) == abs(classical[2 * k])
        assert bernoulli_paper(k) > 0


def test_bernoulli_matches_tangent_numbers():
    tangent = bernoulli_by_tangent_numbers(60)
    for k in range(1, 61):
        assert bernoulli_paper(k) == tangent[k - 1], k


def test_tangent_numbers_match_sympy():
    # a third route, from outside the project; sympy is a test-only oracle
    sympy = pytest.importorskip("sympy")
    for k, value in enumerate(bernoulli_by_tangent_numbers(60), start=1):
        b = sympy.bernoulli(2 * k)
        assert value == abs(Fraction(int(b.p), int(b.q))), k


def test_bernoulli_known_values():
    expected = {
        1: Fraction(1, 6),
        2: Fraction(1, 30),
        3: Fraction(1, 42),
        4: Fraction(1, 30),
        5: Fraction(5, 66),
        6: Fraction(691, 2730),
        7: Fraction(7, 6),
    }
    for k, value in expected.items():
        assert bernoulli_paper(k) == value


def test_bernoulli_rejects_nonpositive_index():
    with pytest.raises(DomainError):
        bernoulli_paper(0)
    with pytest.raises(DomainError):
        todd_coefficients(-1)
    with pytest.raises(DomainError):
        von_staudt_factorization(0)
    with pytest.raises(DomainError):
        von_staudt_den(0)


def test_von_staudt_denominator_matches_exact_rationals():
    for k in range(1, 31):
        exact = bernoulli_quotient(k).denominator
        assert von_staudt_den(k) == exact
        assert exact % 2 == 0


def test_von_staudt_known_values():
    assert [von_staudt_den(k) for k in range(1, 7)] == [
        12,
        120,
        252,
        240,
        132,
        32760,
    ]


def test_von_staudt_factorization_structure():
    for k in range(1, 31):
        factorization = von_staudt_factorization(k)
        n = 2 * k
        product = 1
        for p, e in factorization.items():
            # p contributes exactly when p - 1 divides 2k, with exponent
            # 1 + nu_p(2k)
            assert n % (p - 1) == 0
            nu = 0
            m = n
            while m % p == 0:
                nu += 1
                m //= p
            assert e == 1 + nu
            product *= p**e
        assert product == von_staudt_den(k)


def test_divisor_oriented():
    assert divisor_oriented(1) == 12
    assert divisor_oriented(2) == 2
    assert divisor_oriented(3) == 120
    assert divisor_oriented(4) == 2
    assert divisor_oriented(5) == 252
    with pytest.raises(DomainError):
        divisor_oriented(0)


def test_divisor_spin_even_indices_are_two_powers():
    for m in range(1, 11):
        bound = divisor_spin(2 * m)
        assert bound.spin_divisor == 2 ** (2 * m + 1)
        assert bound.spin_maximality == "proven_maximal"


def test_divisor_spin_odd_indices():
    assert divisor_spin(1).spin_divisor == 48
    assert divisor_spin(1).spin_maximality == "lower_bound_only"
    assert divisor_spin(3).spin_divisor == 2**4 * 120
    for m in range(1, 16):
        bound = divisor_spin(2 * m - 1)
        assert bound.spin_divisor == 2 ** (2 * m) * von_staudt_den(m)


def test_divisor_spin_refines_oriented_by_a_two_power():
    for n in range(1, 31):
        bound = divisor_spin(n)
        assert bound.oriented_divisor == divisor_oriented(n)
        quotient, remainder = divmod(bound.spin_divisor, bound.oriented_divisor)
        assert remainder == 0
        assert quotient & (quotient - 1) == 0


def test_divisor_spin_matches_the_two_case_formula():
    for n in range(1, 501):
        assert divisor_spin(n) == divisor_spin_by_parity(n)
    for n in (0, -3):
        with pytest.raises(DomainError, match="^index must be a positive integer$"):
            divisor_spin(n)


def test_divisibility_bound_consistency_guard():
    with pytest.raises(DomainError) as excinfo:
        DivisibilityBound(1, 12, 18, "lower_bound_only")
    assert str(excinfo.value) == "spin divisor must refine the oriented divisor"


def test_modz_normalization_and_alias():
    assert ModZ(Fraction(7, 3)).residue == Fraction(1, 3)
    assert ModZ(Fraction(-1, 12)).residue == Fraction(11, 12)
    assert ModZ("13/12").residue == Fraction(1, 12)
    assert ModZ(1).residue == 0 and type(ModZ(1).residue) is Fraction
    assert ModZ(Fraction(11, 12)).alias == Fraction(-1, 12)
    assert ModZ(Fraction(1, 3)).alias is None
    assert ModZ(Fraction(1, 2)).alias is None
    assert ModZ(0).legible() == 0
    assert ModZ(Fraction(11, 12)).legible() == Fraction(-1, 12)


def test_modz_arithmetic():
    half = ModZ(Fraction(1, 2))
    third = ModZ(Fraction(1, 3))
    assert (half + third).residue == Fraction(5, 6)
    assert (half + -1 * third).residue == Fraction(1, 6)
    assert (5 * third).residue == Fraction(2, 3)
    assert (third * 3).residue == 0
    # only an integer multiple is defined on Q/Z
    for product in (
        lambda: third * Fraction(1, 2), lambda: third * 0.5, lambda: Fraction(1, 2) * third,
        lambda: third * True,
    ):
        with pytest.raises(TypeError):
            product()
    # and a residue is exact: no float, and a bool is not an int here
    for inexact in (0.1, True, float("nan")):
        with pytest.raises(TypeError):
            ModZ(inexact)


def test_modz_order():
    assert ModZ(0).order() == 1
    assert ModZ(Fraction(1, 3)).order() == 3
    assert ModZ(Fraction(11, 12)).order() == 12
    assert ModZ(Fraction(5, 24)).order() == 24
    assert ModZ(Fraction(1, 25)).order() == 25
    # against the definition: the least m with m * r integral, which every
    # residue has, so order() never raises
    for q in range(1, 61):
        for p in range(q):
            r = ModZ(Fraction(p, q))
            least = next(m for m in range(1, q + 1) if (m * r.residue).denominator == 1)
            assert r.order() == least


def test_serialization_helpers():
    assert fraction_doc(Fraction(-1, 12)) == {"num": "-1", "den": "12"}
    doc = ModZ(Fraction(11, 12)).to_doc()
    assert doc == {
        "residue": {"num": "11", "den": "12"},
        "alias": {"num": "-1", "den": "12"},
    }
    assert ModZ(Fraction(1, 3)).to_doc()["alias"] is None
