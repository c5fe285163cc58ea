"""Tests for the SL2(F5) model of the binary icosahedral group."""

import pytest

from spincalc.errors import DomainError, WitnessSearchError
from spincalc.icosa_group import (
    IDENTITY,
    MINUS_IDENTITY,
    P,
    center_elements,
    element_order,
    element_order_census,
    enumerate_group,
    find_presentation_triple,
    inv,
    mul,
    power,
    regular_restriction_profile,
    verify_perfect,
)

from reference import (
    cyclic_subgroup,
    doubled_pullback_regular_character,
    fixed_coset_count,
    icosa_group_at,
    neg,
    presentation_triples,
    quotient_cosets,
    sl2_order_census,
    subgroup_is_perfect,
    triple_relations_hold,
)


def test_group_order():
    group = enumerate_group()
    assert len(group) == 120
    assert len(set(group)) == 120
    assert IDENTITY in group
    assert MINUS_IDENTITY in group


def test_determinants_are_one():
    for a, b, c, d in enumerate_group():
        assert (a * d - b * c) % 5 == 1


def test_group_axioms_spot_checks():
    group = enumerate_group()
    sample = group[::7]
    for x in sample:
        assert mul(x, IDENTITY) == x
        assert mul(x, inv(x)) == IDENTITY
        assert neg(x) == mul(MINUS_IDENTITY, x)
    for x in sample[:6]:
        for y in sample[:6]:
            assert mul(x, y) in group


def test_order_census():
    assert element_order_census() == {
        1: 1,
        2: 1,
        3: 20,
        4: 30,
        5: 24,
        6: 20,
        10: 24,
    }


def test_order_census_is_the_sl2_formula():
    assert sl2_order_census(7) == {
        1: 1, 2: 1, 3: 56, 4: 42, 6: 56, 7: 48, 8: 84, 14: 48
    }
    assert element_order_census() == sl2_order_census(P)
    assert len(enumerate_group()) == P * (P * P - 1)


def test_unique_involution_is_minus_identity():
    involutions = [g for g in enumerate_group() if element_order(g) == 2]
    assert involutions == [MINUS_IDENTITY]


def test_center():
    assert set(center_elements()) == {IDENTITY, MINUS_IDENTITY}


def test_perfectness():
    assert verify_perfect()
    assert subgroup_is_perfect(enumerate_group())
    # abelian subgroups fail the same computation
    assert not subgroup_is_perfect((IDENTITY, MINUS_IDENTITY))
    five = next(g for g in enumerate_group() if element_order(g) == 5)
    assert not subgroup_is_perfect(cyclic_subgroup(five))
    # a non-subgroup input is rejected rather than misreported
    with pytest.raises(DomainError):
        subgroup_is_perfect((five,))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_perfect_matches_the_full_commutator_oracle(p):
    # SL(2, 3) is solvable; SL(2, 5) and SL(2, 7) are perfect
    twin = icosa_group_at(p)
    want = subgroup_is_perfect(twin.enumerate_group(), twin)
    assert twin.verify_perfect() == want == (p != 3)


def test_cyclic_subgroup():
    five = next(g for g in enumerate_group() if element_order(g) == 5)
    sub = cyclic_subgroup(five)
    assert len(sub) == 5
    assert sub[0] == IDENTITY


def test_presentation_triple_relations():
    t = find_presentation_triple()
    h = t.h
    assert h == MINUS_IDENTITY
    assert power(t.x1, 2) == h
    assert power(t.x2, 3) == h
    assert power(t.x3, 5) == h
    assert mul(mul(t.x1, t.x2), t.x3) == IDENTITY
    assert power(h, 2) == IDENTITY
    # k >>= 1 never takes a negative k to 0, and True is not the int 1
    with pytest.raises(DomainError, match="exponent -1 must be nonnegative"):
        power(t.x1, -1)
    with pytest.raises(TypeError, match="expected an integer, got True"):
        power(t.x1, True)
    for x in (t.x1, t.x2, t.x3):
        assert mul(h, x) == mul(x, h)
    assert element_order(t.x1) == 4
    assert element_order(t.x2) == 6
    assert element_order(t.x3) == 10


def test_presentation_triple_is_the_search_oracles_first():
    assert next(presentation_triples()) == find_presentation_triple()


def test_p_is_the_one_written_in_fact():
    # the module's own source with the line P = 5 read as P = 7 models SL(2, 7)
    twin = icosa_group_at(7)
    assert len(twin.enumerate_group()) == 336
    assert set(twin.center_elements()) == {(1, 0, 0, 1), (6, 0, 0, 6)}
    assert twin.element_order_census() == sl2_order_census(7)
    triple = twin.find_presentation_triple()
    assert triple == ((6, 0, 0, 6), (0, 1, 6, 0), (0, 1, 6, 1), (6, 6, 0, 6))
    assert [twin.element_order(x) for x in triple[1:]] == [4, 6, 14]
    assert triple_relations_hold(twin, triple)
    assert next(presentation_triples(twin), None) is not None
    assert twin.verify_perfect()
    copies = {m: twin.regular_restriction_profile(m).copies for m in twin.BRANCH_ORDERS}
    assert copies == {2: 168, 3: 112, 7: 48}
    with pytest.raises(DomainError):
        twin.regular_restriction_profile(5)


def test_a_broken_relation_raises():
    # over F2, -I is I and the lift of [[0,1],[-1,0]] has order 2, not 4
    with pytest.raises(WitnessSearchError):
        icosa_group_at(2).find_presentation_triple()


def test_quotient_cosets():
    cosets = quotient_cosets()
    assert len(cosets) == 60
    assert all(len(c) == 2 for c in cosets)


def test_fixed_cosets_and_regular_character():
    # left translation by a central element fixes every coset, any other
    # element fixes none
    assert fixed_coset_count(IDENTITY) == 60
    assert fixed_coset_count(MINUS_IDENTITY) == 60
    assert doubled_pullback_regular_character(IDENTITY) == 120
    noncentral = next(g for g in enumerate_group() if element_order(g) == 3)
    assert fixed_coset_count(noncentral) == 0
    assert doubled_pullback_regular_character(noncentral) == 0


def test_regular_restriction_profiles():
    for m, copies in ((2, 60), (3, 40), (5, 24)):
        # second route to the closed form: on the powers of an element of
        # order 2m the doubled pullback character is 120 at the center
        # (x^0 and x^m) and 0 elsewhere, so each character of the order-m
        # quotient occurs (120 + 120) / 2m = 120/m times
        x = next(g for g in enumerate_group() if element_order(g) == 2 * m)
        values = [doubled_pullback_regular_character(power(x, k)) for k in range(2 * m)]
        assert values == [120 if k % m == 0 else 0 for k in range(2 * m)]
        assert sum(values) // (2 * m) == copies
        profile = regular_restriction_profile(m)
        assert profile.order == m
        assert profile.copies == copies
        assert profile.exponent_multiplicities == {j: copies for j in range(m)}
        assert sum(profile.exponent_multiplicities.values()) == 120
    with pytest.raises(DomainError):
        regular_restriction_profile(4)
