"""The quotient ring as a subclass, checked against the wrapper it replaced,
and the argument checks of IntPolynomial.

reference.py holds the old semantics: a plain IntPolynomial operation
followed by reduction mod 2 c3.  Every QuotientedPolynomial operation must
give the same reduced representative, render and JSON form.
"""

import random
from fractions import Fraction

import pytest

from spincalc.char_classes import lambda_kappa_difference, sphere_lambda
from spincalc.errors import DimensionMismatchError, DomainError
from spincalc.polynomials import QUOTIENT_GENS, IntPolynomial, QuotientedPolynomial

from reference import (
    reduce_mod_2c3,
    reduced_lambda_kappa_difference,
    reduced_sphere_lambdas,
)

GENS = ("x", "y")
X = IntPolynomial.generator(GENS, "x")
C2 = QuotientedPolynomial(IntPolynomial.generator(QUOTIENT_GENS, "c2"))
C3 = QuotientedPolynomial(IntPolynomial.generator(QUOTIENT_GENS, "c3"))


def _random_lift(rng: random.Random) -> IntPolynomial:
    terms = {
        (rng.randrange(4), rng.randrange(4)): rng.randint(-9, 9)
        for _ in range(rng.randrange(6))
    }
    return IntPolynomial(QUOTIENT_GENS, terms)


def _assert_same(q, expected: IntPolynomial) -> None:
    assert type(q) is QuotientedPolynomial
    assert type(q.poly) is IntPolynomial
    assert q.poly == expected
    assert q.terms == expected.terms
    assert q.render() == expected.render()
    assert q.json_terms() == expected.json_terms()
    assert repr(q) == f"QuotientedPolynomial({expected.render()!r})"


def test_arithmetic_matches_reduce_after_every_operation():
    rng = random.Random(20061)
    r = reduce_mod_2c3
    for _ in range(400):
        a, b = _random_lift(rng), _random_lift(rng)
        qa, qb = QuotientedPolynomial(a), QuotientedPolynomial(b)
        ra, rb = r(a), r(b)
        k, e = rng.randint(-5, 5), rng.randrange(4)
        _assert_same(qa, ra)
        _assert_same(qa + qb, r(ra + rb))
        _assert_same(qa - qb, r(ra - rb))
        _assert_same(-qa, r(-ra))
        _assert_same(qa * qb, r(ra * rb))
        _assert_same(k * qa, r(k * ra))
        _assert_same(qa * k, r(ra * k))
        _assert_same(qa**e, r(ra**e))
        assert (qa == qb) == (ra == rb)
        assert qa == QuotientedPolynomial(ra)


def test_sphere_lambda_matches_the_reduced_recursion():
    for n, expected in enumerate(reduced_sphere_lambdas(300)):
        _assert_same(sphere_lambda(n), expected)


def test_lambda_kappa_difference_matches_the_reduced_recursion():
    for n in range(0, 61):
        _assert_same(lambda_kappa_difference(n), reduced_lambda_kappa_difference(n))


def test_the_two_rings_never_mix():
    lifted = IntPolynomial.generator(QUOTIENT_GENS, "c2")
    for q, i in ((C2, lifted), (C3 + 1, lifted * 3)):
        for op in (
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
        ):
            with pytest.raises(DimensionMismatchError):
                op(q, i)
            with pytest.raises(DimensionMismatchError):
                op(i, q)
    assert C2 != lifted and lifted != C2
    assert not C2 == lifted and not lifted == C2
    assert repr(lifted) == "IntPolynomial('c2')"
    assert repr(C2 + C3) == "QuotientedPolynomial('c2 + c3')"


def test_integers_coerce_into_the_quotient():
    assert C2 + 1 == QuotientedPolynomial(IntPolynomial.constant(QUOTIENT_GENS, 1)) + C2
    assert type(C3 + 1) is QuotientedPolynomial
    assert (C3 + 1).render() == "c3 + 1"
    assert QuotientedPolynomial(IntPolynomial.constant(QUOTIENT_GENS, 2)) == 2
    assert 2 * C3 == 0


def test_exponents_must_be_nonnegative_ints():
    for bad in (1.5, True, False, "1", -1):
        with pytest.raises(DomainError):
            IntPolynomial(GENS, {(bad, 0): 1})
    # and a coefficient is an int: a bool is not stored as 1
    for bad in (True, 1.5):
        with pytest.raises(DomainError):
            IntPolynomial(("x",), {(1,): bad})


def test_generator_names_must_not_repeat():
    with pytest.raises(DomainError):
        IntPolynomial.generator(("x", "x"), "x")
    with pytest.raises(DomainError):
        IntPolynomial(("x", "x"), {})
    # a string is not a tuple of names: "c2" would be the generators c and 2
    with pytest.raises(DomainError):
        IntPolynomial("c2", {(1, 0): 3})
    with pytest.raises(DomainError):
        X.substitute("uv", {"x": 1})
    # a name is a nonempty string: 1 cannot render, and "" renders 2*x as "2*"
    with pytest.raises(DomainError):
        IntPolynomial((1,), {(1,): 1})
    with pytest.raises(DomainError):
        IntPolynomial(("",), {(1,): 2})
    with pytest.raises(DomainError):
        X.substitute((1,), {"x": 1})


@pytest.mark.parametrize(
    "operation",
    [
        lambda: X + 1.5,
        lambda: 1.5 + X,
        lambda: X - 1.5,
        lambda: X * Fraction(1, 2),
        lambda: Fraction(1, 2) * X,
        lambda: X * "a",
        lambda: "a" * X,
        lambda: C2 + 1.5,
        lambda: C2 * Fraction(1, 2),
    ],
)
def test_unsupported_operands_raise_type_error(operation):
    with pytest.raises(TypeError):
        operation()
