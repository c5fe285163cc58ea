"""Tests for exact arithmetic in cyclotomic integer rings."""

import random

import pytest

from spincalc.cyclotomic import cyclotomic_polynomial, element
from spincalc.errors import DomainError

from reference import zeta_power


def test_cyclotomic_polynomials():
    # coefficients low degree first, leading coefficient included
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # the first index with a coefficient outside {-1, 0, 1} is 105
    assert max(abs(c) for c in cyclotomic_polynomial(105)) == 2


def test_degree_is_euler_phi():
    phi = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 9: 6, 12: 4, 18: 6, 30: 8}
    for m, expected in phi.items():
        assert len(cyclotomic_polynomial(m)) - 1 == expected


def test_zeta_powers_reduce_correctly():
    # zeta_6 satisfies z^2 = z - 1
    assert zeta_power(6, 0) == (1, 0)
    assert zeta_power(6, 1) == (0, 1)
    assert zeta_power(6, 2) == (-1, 1)
    assert zeta_power(6, 3) == (-1, 0)
    assert zeta_power(6, 6) == (1, 0)
    assert zeta_power(6, 7) == (0, 1)


def test_full_orbit_sums_to_zero():
    for m in (2, 3, 5, 6, 10, 12):
        total = [0] * (len(cyclotomic_polynomial(m)) - 1)
        for k in range(m):
            p = zeta_power(m, k)
            total = [a + b for a, b in zip(total, p)]
        assert all(c == 0 for c in total)


def test_element_assembly():
    # 2 zeta_6^0 + zeta_6^2 = 2 + (zeta - 1) = 1 + zeta
    assert element(6, {0: 2, 2: 1}) == (1, 1)
    assert element(6, {}) == (0, 0)
    assert element(6, {0: 7}) == (7, 0)
    assert element(5, {0: -2}) == (-2, 0, 0, 0)
    # a multiplicity is an int, never a float or a bool
    for bad in ({0: 2.5, 1: True}, {0: 2.5, 1: 1}, {0: 2, 1: True}):
        with pytest.raises(TypeError, match="expected an integer multiplicity"):
            element(5, bad)


def test_elements_distinguish_multisets():
    # zeta_5 + zeta_5^4 is not an integer, and differs from zeta_5^2 + zeta_5^3
    a = element(5, {1: 1, 4: 1})
    b = element(5, {2: 1, 3: 1})
    assert a != b
    assert a != element(5, {0: -1})
    # but their sum is the full orbit minus 1, which is -1
    s = [x + y for x, y in zip(a, b)]
    assert tuple(s) == element(5, {0: -1})


# The oracle: Phi_m as x^m - 1 divided by the product of the lower Phi_d,
# powers of zeta_m by shifting and subtracting Phi_m, and elements as sums of
# power vectors.  spincalc.cyclotomic gets all three from one long division.


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exact_quotient(num, den):
    """Quotient of num by monic den; the remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    assert den[-1] == 1
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = num[k + dd]
        for j, b in enumerate(den):
            num[k + j] -= c * b
    assert not any(num), "division left a remainder"
    return quot


def _oracle_phi(m):
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, _oracle_phi(d))
    return _exact_quotient([-1] + [0] * (m - 1) + [1], den)


def _oracle_powers(m):
    """x^0, ..., x^{m-1} mod Phi_m, each by one shift of the previous."""
    phi = _oracle_phi(m)
    d = len(phi) - 1
    vec = [1] + [0] * (d - 1)
    powers = []
    for _ in range(m):
        powers.append(tuple(vec))
        top = vec[-1]
        vec = [0] + vec[:-1]
        vec = [v - top * c for v, c in zip(vec, phi)]
    return powers


def _oracle_element(m, powers, multiplicities):
    vec = [0] * len(powers[0])
    for e, mu in multiplicities.items():
        vec = [v + mu * p for v, p in zip(vec, powers[e % m])]
    return tuple(vec)


def test_divisor_product_identity_up_to_105():
    for m in range(1, 106):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                product = _poly_mul(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (m - 1) + [1], m


def test_polynomials_and_powers_match_the_oracle():
    for m in range(1, 61):
        assert list(cyclotomic_polynomial(m)) == _oracle_phi(m)
        powers = _oracle_powers(m)
        for k in range(-m, 2 * m + 2):
            assert zeta_power(m, k) == powers[k % m], (m, k)
        assert element(m, {0: 5}) == _oracle_element(m, powers, {0: 5})


def test_seeded_elements_match_the_oracle():
    # keys run from -m to 3m, so they collide mod m and some are negative
    rng = random.Random(20261018)
    powers = {m: _oracle_powers(m) for m in range(1, 61)}
    for _ in range(3000):
        m = rng.randint(1, 60)
        mults = {
            rng.randint(-m, 3 * m): rng.randint(-6, 6)
            for _ in range(rng.randint(0, 10))
        }
        assert element(m, mults) == _oracle_element(m, powers[m], mults)


def test_nonpositive_order_is_a_domain_error():
    for m in (0, -4):
        for call in (
            lambda: cyclotomic_polynomial(m),
            lambda: zeta_power(m, 1),
            lambda: element(m, {1: 1}),
        ):
            with pytest.raises(DomainError, match="m must be positive"):
                call()
