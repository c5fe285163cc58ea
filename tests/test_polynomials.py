"""Tests for the sparse integer polynomial ring and its 2c3 quotient."""

from unittest import mock

import pytest

from spincalc.errors import DimensionMismatchError, DomainError
from spincalc.polynomials import (
    QUOTIENT_GENS,
    IntPolynomial,
    QuotientedPolynomial,
)

from reference import repeated_products

GENS = ("x", "y")
X = IntPolynomial.generator(GENS, "x")
Y = IntPolynomial.generator(GENS, "y")


def test_constructor_cleans_terms():
    p = IntPolynomial(GENS, {(1, 0): 2, (0, 0): 0})
    assert p.terms == {(1, 0): 2}
    assert IntPolynomial(GENS, {}).is_zero
    # duplicate exponent keys cannot occur in a dict, but coefficients
    # cancel through arithmetic, and keys that are equal as tuples cancel
    assert (X - X).is_zero
    assert IntPolynomial(("x",), {(1,): 1, range(1, 2): -1}).is_zero


def test_constructor_validation():
    with pytest.raises(DimensionMismatchError):
        IntPolynomial(GENS, {(1,): 1})
    with pytest.raises(DomainError):
        IntPolynomial(GENS, {(-1, 0): 1})
    with pytest.raises(DomainError):
        IntPolynomial(GENS, {(1, 0): 1.5})
    with pytest.raises(DomainError):
        IntPolynomial.generator(GENS, "z")
    # the terms are a dict, not a list of pairs
    with pytest.raises(TypeError):
        IntPolynomial(("x",), [((1,), 1)])


def test_ring_arithmetic():
    p = (X + Y) ** 2
    assert p == X**2 + 2 * (X * Y) + Y**2
    assert (X + 1) * (X - 1) == X**2 - 1
    assert -(X - Y) == Y - X
    assert 0 * X == IntPolynomial.zero(GENS)
    assert X * 3 == 3 * X
    assert 3 * (X + X) == X * 6
    with pytest.raises(DomainError):
        X ** (-1)


def test_powers_match_repeated_products():
    # monomials at every exponent to 300; two-term bases, whose powers grow,
    # at every exponent to 40, around each power of two to 256, and at 300
    some = set(range(41)) | {e + d for e in (64, 128, 256) for d in (-1, 0, 1)} | {300}
    c2, c3 = (
        QuotientedPolynomial(IntPolynomial.generator(QUOTIENT_GENS, name))
        for name in QUOTIENT_GENS
    )
    for base, exponents in [
        (-3 * X * Y**2, range(301)),
        (3 * c2 * c3, range(301)),
        (X - 2 * Y, some),
        (c2 - c3, some),
        (X * 0, range(301)),
    ]:
        for e, power in enumerate(repeated_products(base, 300)):
            if e in exponents:
                got = base**e
                assert type(got) is type(base) and got == power


def test_integers_add_and_subtract_on_the_left():
    assert 1 + X == X + 1
    assert 1 - X == -X + 1
    assert 3 - (X - Y) == Y - X + 3
    assert 1 - C3 == C3 + 1
    assert 2 + C2 == C2 + 2
    assert type(1 - C3) is type(2 + C2) is QuotientedPolynomial
    with pytest.raises(TypeError):
        1.5 - X
    with pytest.raises(TypeError):
        X - True
    with pytest.raises(TypeError):
        1.5 + C3


def test_mixed_ring_arithmetic_is_rejected():
    other = IntPolynomial.generator(("z",), "z")
    with pytest.raises(DimensionMismatchError):
        X + other
    with pytest.raises(DimensionMismatchError):
        X * other


def test_equality_with_integers():
    assert IntPolynomial.constant(GENS, 5) == 5
    assert X != 1
    assert IntPolynomial.zero(GENS) == 0
    # any other operand is left to compare itself, as mock.ANY does
    assert X == mock.ANY and X != "x"


def test_substitute():
    target = ("u",)
    u = IntPolynomial.generator(target, "u")
    p = 2 * X**2 + 3 * (X * Y) + 1
    image = p.substitute(target, {"x": u, "y": -2 * u})
    assert image == 2 * u**2 - 6 * u**2 + 1
    assert p.substitute(list(target), {"x": u, "y": -2 * u}) == image
    # generators that do not occur need no image
    q = X**2 + 1
    assert q.substitute(target, {"x": u}) == u**2 + 1
    with pytest.raises(DomainError):
        p.substitute(target, {"x": u})
    with pytest.raises(DimensionMismatchError):
        p.substitute(target, {"x": X, "y": Y})
    # every image is checked, also that of a generator that does not occur
    with pytest.raises(DimensionMismatchError):
        q.substitute(target, {"x": u, "y": Y})
    # an image is an int or a polynomial: a bool is not the int 1
    for bad in (2.0, "3", None, True):
        with pytest.raises(TypeError):
            q.substitute(target, {"x": bad})
    # and the mapping is a dict, not a list of pairs
    with pytest.raises(TypeError):
        p.substitute(target, [("x", 1)])


def test_substitute_accepts_integers():
    p = X**2 + Y
    assert p.substitute((), {"x": 3, "y": -1}) == IntPolynomial.constant((), 8)


def test_render():
    assert IntPolynomial.zero(GENS).render() == "0"
    assert IntPolynomial.constant(GENS, -1).render() == "-1"
    assert X.render() == "x"
    assert (-X).render() == "-x"
    assert (2 * X**2 - 8 * Y + 3).render() == "2*x^2 - 8*y + 3"
    assert (X * Y**2).render() == "x*y^2"


def test_sorted_terms_and_json_are_deterministic():
    p = X**2 + X * Y + Y**2 + X + 2
    expos = [e for e, _ in p.sorted_terms()]
    # total degree descending, then lexicographically by exponent vector
    assert expos == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 0)]
    assert p.json_terms() == [
        {"coeff": "1", "exponents": {"x": 2}},
        {"coeff": "1", "exponents": {"x": 1, "y": 1}},
        {"coeff": "1", "exponents": {"y": 2}},
        {"coeff": "1", "exponents": {"x": 1}},
        {"coeff": "2", "exponents": {}},
    ]


C2 = QuotientedPolynomial(IntPolynomial.generator(QUOTIENT_GENS, "c2"))
C3 = QuotientedPolynomial(IntPolynomial.generator(QUOTIENT_GENS, "c3"))
QUOTIENT_ZERO = QuotientedPolynomial(IntPolynomial(QUOTIENT_GENS, {}))


def test_quotient_kills_two_c3():
    assert (2 * C3).is_zero
    assert (3 * C3) == C3
    assert (2 * (C2 * C3)).is_zero
    assert (-C3) == C3


def test_quotient_leaves_c2_untouched():
    assert (2 * C2) != C2
    assert (2 * C2).render() == "2*c2"
    assert (-2 * C2**3 + 3 * C3**2).render() == "-2*c2^3 + c3^2"


def test_quotient_arithmetic_and_wrapping():
    lifted = IntPolynomial(QUOTIENT_GENS, {(0, 1): 5, (1, 0): 4})
    assert QuotientedPolynomial(lifted) == 4 * C2 + C3
    assert (C2 + C3) - (C2 - C3) == 2 * C3 + QUOTIENT_ZERO
    assert (C2 + C3) - (C2 - C3) == QUOTIENT_ZERO
    with pytest.raises(DimensionMismatchError):
        QuotientedPolynomial(X)
    for bad in (5, "c2"):
        with pytest.raises(TypeError):
            QuotientedPolynomial(bad)


def test_quotient_constant():
    two = QuotientedPolynomial(IntPolynomial.constant(QUOTIENT_GENS, 2))
    assert two.render() == "2"
    assert not two.is_zero
