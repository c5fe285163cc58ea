"""Tests for Seifert data, the multiplicity solver, and the e-invariants."""

import math
import random
import sys
from fractions import Fraction

import pytest

from spincalc.cyclotomic import cyclotomic_polynomial, element
from spincalc.errors import (
    CentralBehaviorError,
    DomainError,
    EnumerationCapError,
    InvalidSeifertDataError,
    MultiplicityError,
    TorsionBoundError,
)
from spincalc.exact_arith import ModZ
from spincalc.seifert import (
    POINCARE,
    EigenvalueProfile,
    FixedPointData,
    RepSpec,
    SeifertData,
    e_general,
    e_simple,
    einvariant_document,
    example_document,
    homology_sphere_obstruction,
    icosahedral_example,
    is_integral_homology_sphere,
    lefschetz_trace,
    multiplicity_solve,
    order_in_pi3,
    regular_increment,
    repspec_from_document,
    seifert_check_document,
    stabilization,
    stabilized_e,
)

from reference import e_general_by_power_sums, e_simple_by_power_sums


def test_seifert_data_validation():
    with pytest.raises(InvalidSeifertDataError) as excinfo:
        SeifertData(((0, 1),))
    assert str(excinfo.value) == "fiber order 0 must be positive"
    with pytest.raises(InvalidSeifertDataError) as excinfo:
        SeifertData(((2, 4),))
    assert str(excinfo.value) == "pair (2, 4) is not coprime"
    assert SeifertData(((1, 0), (3, 2))).a == 3


def test_rep_spec_validation():
    profile = EigenvalueProfile(1, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(DomainError) as excinfo:
        RepSpec(0, None, ())
    assert str(excinfo.value) == "dimension must be positive"
    with pytest.raises(DomainError) as excinfo:
        RepSpec(3, None, (profile,))
    assert str(excinfo.value) == "profile for fiber 1 has 2 eigenvalues, expected 3"
    assert RepSpec(2, 0, (profile,)).trivial_center


def test_poincare_is_a_homology_sphere():
    assert homology_sphere_obstruction(POINCARE) == 1
    assert is_integral_homology_sphere(POINCARE)


def test_other_obstruction_values():
    # the (2, 3, 7) Brieskorn sphere evaluates to -1
    brieskorn = SeifertData(((2, -1), (3, 1), (7, 1)))
    assert homology_sphere_obstruction(brieskorn) == -1
    assert is_integral_homology_sphere(brieskorn)
    not_sphere = SeifertData(((2, 1), (3, 1), (5, 1)))
    assert homology_sphere_obstruction(not_sphere) == 31
    assert not is_integral_homology_sphere(not_sphere)


def test_lefschetz_trace():
    assert lefschetz_trace(0) == 2
    assert lefschetz_trace(2) == 0
    assert lefschetz_trace(4) == -2
    with pytest.raises(DomainError):
        lefschetz_trace(-1)


def test_fixed_point_traces():
    fp = FixedPointData(9, (4, 2, 4))
    assert fp.traces() == (-2, 0, -2)


def test_multiplicity_solver_hexagonal_case():
    # two conjugate sixth roots and -1, dimension 28, trace 2
    assert multiplicity_solve(6, 28, 2, (1, 3, 5)) == (10, 8, 10)


def test_multiplicity_solver_small_cases():
    # equal weights on all cube roots sum to zero
    assert multiplicity_solve(3, 18, 0, (0, 1, 2)) == (6, 6, 6)
    assert multiplicity_solve(2, 18, -2, (0, 1)) == (8, 10)
    assert multiplicity_solve(5, 18, -2, (0, 1, 2, 3, 4)) == (2, 4, 4, 4, 4)
    assert multiplicity_solve(4, 28, 0, (1, 3)) == (14, 14)
    assert multiplicity_solve(10, 28, 2, (1, 3, 5, 7, 9)) == (6, 6, 4, 6, 6)


def test_multiplicity_solver_exponents_are_normalized():
    assert multiplicity_solve(6, 28, 2, (7, 3, -1)) == (10, 8, 10)


@pytest.mark.parametrize("bad", [1.9, "1", True])
def test_multiplicity_solver_exponents_must_be_integers(bad):
    with pytest.raises(TypeError):
        multiplicity_solve(6, 28, 2, (bad, 3, 5))


@pytest.mark.parametrize(
    "args", [(5.0, 4, 1), (5, 4.0, 1), (5, 4, 1.5), (True, 4, 1), (5, 4, True), (5, "4", 1)]
)
def test_multiplicity_solver_order_dimension_and_trace_must_be_integers(args):
    with pytest.raises(TypeError, match="expected an integer"):
        multiplicity_solve(*args, (0, 1, 2, 3, 4))


def test_multiplicity_solver_forced_zero_orbits():
    # an exponent whose conjugate is excluded must vanish
    assert multiplicity_solve(5, 0, 0, (1,)) == (0,)
    with pytest.raises(MultiplicityError) as info:
        multiplicity_solve(5, 1, 0, (1,))
    assert info.value.solutions == ()


def test_multiplicity_solver_reports_ambiguity():
    with pytest.raises(MultiplicityError) as info:
        multiplicity_solve(6, 10, 0, (0, 2, 3, 4))
    assert set(info.value.solutions) == {(5, 0, 5, 0), (4, 2, 2, 2)}
    # the message alone is the error's text, with solutions given by position too
    error = MultiplicityError("2 multiplicity solutions", ((1,), (2,)))
    assert str(error) == "2 multiplicity solutions" and error.solutions == ((1,), (2,))


def test_multiplicity_solver_no_solution():
    # zeta_5 + zeta_5^4 is irrational, so no nonzero real combination of
    # that pair alone is an integer
    with pytest.raises(MultiplicityError) as info:
        multiplicity_solve(5, 2, 0, (1, 4))
    assert info.value.solutions == ()


def test_multiplicity_solver_guards():
    with pytest.raises(DomainError):
        multiplicity_solve(0, 1, 0, (0,))
    with pytest.raises(DomainError):
        multiplicity_solve(3, -1, 0, (0,))
    with pytest.raises(DomainError):
        multiplicity_solve(3, 1, 0, ())
    # the cap itself: one orbit of dimension + 1 choices, 2,000,000 of them at most
    assert multiplicity_solve(1, 1_999_999, 1_999_999, (0,)) == (1_999_999,)
    with pytest.raises(EnumerationCapError):
        multiplicity_solve(1, 2_000_000, 2_000_000, (0,))
    with pytest.raises(EnumerationCapError):
        multiplicity_solve(50, 50, 0, tuple(range(50)))
    # the solver has one mode: conjugate multiplicities always pair up
    with pytest.raises(TypeError):
        multiplicity_solve(6, 28, 2, (1, 3, 5), real=True)


def profile_multiset(profile):
    out = {}
    for s in profile.s_values:
        out[s] = out.get(s, 0) + 1
    return out


def test_example_one_structure():
    result = icosahedral_example(1)
    assert result.kind == "two_re_times_n_e"
    assert result.rep.dimension == 28
    assert result.rep.scalar_exponent == 14
    assert result.fixed_points.genus == 14
    assert result.fixed_points.counts == (2, 0, 0)
    assert result.fixed_points.traces() == (0, 2, 2)
    multisets = [profile_multiset(p) for p in result.rep.profiles]
    assert multisets[0] == {0: 14, 1: 14}
    assert multisets[1] == {0: 10, 1: 10, 2: 8}
    assert multisets[2] == {0: 6, 1: 6, 2: 6, 3: 4, 4: 6}
    assert result.value == ModZ(Fraction(1, 3))
    assert result.order is None
    assert result.order_constraint == (6, 12, 24)


def test_example_two_structure():
    result = icosahedral_example(2)
    assert result.kind == "e"
    assert result.rep.dimension == 18
    assert result.rep.scalar_exponent is None
    assert result.fixed_points.counts == (4, 2, 4)
    multisets = [profile_multiset(p) for p in result.rep.profiles]
    assert multisets[0] == {0: 8, 1: 10}
    assert multisets[1] == {0: 6, 1: 6, 2: 6}
    assert multisets[2] == {0: 2, 1: 4, 2: 4, 3: 4, 4: 4}
    assert result.value == ModZ(Fraction(1, 2))
    assert result.order == 2


def test_example_three_structure():
    result = icosahedral_example(3)
    assert result.kind == "e"
    assert result.rep.dimension == 10
    assert result.fixed_points.counts == (2, 4, 2)
    multisets = [profile_multiset(p) for p in result.rep.profiles]
    assert multisets[0] == {0: 5, 1: 5}
    assert multisets[1] == {0: 2, 1: 4, 2: 4}
    assert multisets[2] == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}
    assert result.value == ModZ(Fraction(-1, 12))
    assert result.value.residue == Fraction(11, 12)
    assert result.order == 12


def test_unknown_example_rejected():
    with pytest.raises(DomainError):
        icosahedral_example(4)


def per_fiber_simple_contribution(data, profile, j):
    a = data.a
    aj = data.pairs[j - 1][0]
    return -sum(Fraction(a) * s * s / (2 * aj * aj) for s in profile.s_values)


def per_fiber_general_contribution(data, profile, j):
    a = data.a
    aj = data.pairs[j - 1][0]
    total = Fraction(0)
    for sk in profile.s_values:
        for sl in profile.s_values:
            total -= Fraction(a) * (sk - sl) ** 2 / (2 * aj * aj)
    return total


def test_example_per_fiber_contributions():
    ex1 = icosahedral_example(1)
    general = [
        per_fiber_general_contribution(ex1.data, p, j)
        for j, p in enumerate(ex1.rep.profiles, start=1)
    ]
    assert general == [-1470, Fraction(-5000, 3), -1944]
    assert ModZ(sum(general)) == ex1.value

    ex2 = icosahedral_example(2)
    simple = [
        per_fiber_simple_contribution(ex2.data, p, j)
        for j, p in enumerate(ex2.rep.profiles, start=1)
    ]
    assert simple == [Fraction(-75, 2), -50, -72]
    assert ModZ(sum(simple)) == ex2.value

    ex3 = icosahedral_example(3)
    simple = [
        per_fiber_simple_contribution(ex3.data, p, j)
        for j, p in enumerate(ex3.rep.profiles, start=1)
    ]
    assert simple == [Fraction(-75, 4), Fraction(-100, 3), -36]
    assert ModZ(sum(simple)) == ex3.value


def test_e_simple_requires_trivial_center():
    ex1 = icosahedral_example(1)
    with pytest.raises(CentralBehaviorError):
        e_simple(ex1.data, ex1.rep)


def test_e_formulas_validate_profile_alignment():
    data = POINCARE
    good = icosahedral_example(3).rep
    with pytest.raises(DomainError):
        e_simple(data, RepSpec(10, None, good.profiles[:2]))
    shuffled = (good.profiles[1], good.profiles[0], good.profiles[2])
    fixed = tuple(
        EigenvalueProfile(j, p.s_values) for j, p in enumerate(shuffled, start=1)
    )
    # wrong fiber labels are rejected before relabeling
    with pytest.raises(DomainError):
        e_simple(data, RepSpec(10, None, shuffled))
    assert e_simple(data, RepSpec(10, None, fixed)) != icosahedral_example(3).value


def shift_profile(profiles, fiber, index, delta):
    out = []
    for p in profiles:
        if p.fiber == fiber:
            values = list(p.s_values)
            values[index] += delta
            out.append(EigenvalueProfile(p.fiber, tuple(values)))
        else:
            out.append(p)
    return tuple(out)


def test_e_simple_is_invariant_under_fiberwise_shifts():
    # replacing one s by s + a_j leaves the class in Q/Z unchanged
    for k in (2, 3):
        result = icosahedral_example(k)
        base = result.value
        for j, (aj, _) in enumerate(result.data.pairs, start=1):
            moved = shift_profile(result.rep.profiles, j, 0, aj)
            rep = RepSpec(result.rep.dimension, None, moved)
            assert e_simple(result.data, rep) == base


def test_e_general_is_invariant_under_common_shifts():
    result = icosahedral_example(1)
    base = result.value
    for j, (aj, _) in enumerate(result.data.pairs, start=1):
        # adding any constant to the whole profile changes no difference
        moved = tuple(
            EigenvalueProfile(p.fiber, tuple(s + 7 for s in p.s_values))
            if p.fiber == j
            else p
            for p in result.rep.profiles
        )
        rep = RepSpec(result.rep.dimension, 14, moved)
        assert e_general(result.data, rep) == base
        # and a single shift by a_j is also invisible
        moved = shift_profile(result.rep.profiles, j, 0, aj)
        rep = RepSpec(result.rep.dimension, 14, moved)
        assert e_general(result.data, rep) == base


def correction_term(data, profiles):
    a = data.a
    total = Fraction(0)
    for (aj, _), p in zip(data.pairs, profiles):
        total += Fraction(a) * sum(p.s_values) ** 2 / (aj * aj)
    return total


def test_general_formula_couples_to_simple_formula():
    # sum_{k,l} (s_k - s_l)^2 = 2N sum s^2 - 2 (sum s)^2 turns the general
    # formula into 2N times the simple one plus an explicit correction
    for k in (2, 3):
        result = icosahedral_example(k)
        rep0 = RepSpec(result.rep.dimension, 0, result.rep.profiles)
        lhs = e_general(result.data, rep0)
        correction = correction_term(result.data, result.rep.profiles)
        rhs = (2 * result.rep.dimension) * result.value + ModZ(correction)
        assert lhs == rhs


def _seeded_bundle(rng):
    """Random coprime pairs and rational s-values with N <= 30, and a
    trivial or scalar centre."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(1, 7)
        pairs.append((a, rng.choice([b for b in range(-7, 8) if math.gcd(a, b) == 1])))
    n = rng.randint(1, 30)
    profiles = tuple(
        EigenvalueProfile(j, tuple(
            Fraction(rng.randint(-2 * a, 2 * a), rng.choice((1, 1, 2, 3, n)))
            for _ in range(n)
        ))
        for j, (a, _) in enumerate(pairs, start=1)
    )
    return SeifertData(tuple(pairs)), RepSpec(n, rng.choice((None, 0, n - 1)), profiles)


def test_e_formulas_match_the_power_sums():
    bundles = [(r.data, r.rep) for r in map(icosahedral_example, (1, 2, 3))]
    rng = random.Random(2026)
    bundles += [_seeded_bundle(rng) for _ in range(100)]
    simple = 0
    for d, rep in bundles:
        assert e_general(d, rep) == ModZ(e_general_by_power_sums(d, rep))
        if rep.trivial_center:
            assert e_simple(d, rep) == ModZ(e_simple_by_power_sums(d, rep))
            simple += 1
    assert 0 < simple < len(bundles)


def test_bare_coherence_holds_only_when_the_correction_is_integral():
    # for the 18-dimensional example the correction term is an integer, so
    # the general value is just 2N times the simple one
    ex2 = icosahedral_example(2)
    rep0 = RepSpec(18, 0, ex2.rep.profiles)
    assert correction_term(ex2.data, ex2.rep.profiles).denominator == 1
    assert e_general(ex2.data, rep0) == (2 * 18) * ex2.value
    # for the 10-dimensional one it contributes exactly a half
    ex3 = icosahedral_example(3)
    rep0 = RepSpec(10, 0, ex3.rep.profiles)
    correction = correction_term(ex3.data, ex3.rep.profiles)
    assert ModZ(correction) == ModZ(Fraction(1, 2))
    assert e_general(ex3.data, rep0) == (2 * 10) * ex3.value + ModZ(
        Fraction(1, 2)
    )


def test_regular_increment():
    assert regular_increment() == ModZ(Fraction(-1, 3))


def test_regular_profile_contributions():
    # 60/40/24 copies of the regular characters of the three cyclic groups
    data = POINCARE
    expected = [-225, Fraction(-1000, 3), -432]
    from spincalc import icosa_group

    for j, ((aj, _), want) in enumerate(zip(data.pairs, expected), start=1):
        rp = icosa_group.regular_restriction_profile(aj)
        s_values = []
        for exp in sorted(rp.exponent_multiplicities):
            s_values.extend([Fraction(exp)] * rp.exponent_multiplicities[exp])
        p = EigenvalueProfile(j, tuple(s_values))
        assert per_fiber_simple_contribution(data, p, j) == want


def test_stabilized_e_walks_down_by_thirds():
    base = icosahedral_example(3).value
    for n in range(0, 11):
        expected = ModZ(Fraction(-1, 12) - Fraction(n, 3))
        assert stabilized_e(n) == expected
        assert stabilized_e(n) == base + n * regular_increment()
        assert stabilization(n) == (base, regular_increment(), expected)
    assert stabilized_e(1).legible() == Fraction(-5, 12)
    assert stabilized_e(2).legible() == Fraction(1, 4)
    # the increment has order 3, so the walk has period 3
    assert stabilized_e(3) == stabilized_e(0)
    for route in (stabilized_e, stabilization):
        with pytest.raises(DomainError):
            route(-1)


def test_order_in_pi3():
    assert order_in_pi3(ModZ(Fraction(-1, 12))) == 12
    assert order_in_pi3(ModZ(Fraction(1, 2))) == 2
    assert order_in_pi3(ModZ(0)) == 1
    with pytest.raises(TorsionBoundError):
        order_in_pi3(ModZ(Fraction(1, 25)))
    # the bound of pi_3^s = Z/24 is applied here alone, against the
    # definition: the least m <= 24 with m * r integral, else the error
    for q in range(1, 61):
        for p in range(q):
            r = ModZ(Fraction(p, q))
            least = next(
                (m for m in range(1, 25) if (m * r.residue).denominator == 1), None
            )
            if least is not None:
                assert order_in_pi3(r) == least == r.order()
                continue
            message = f"{r.residue} is not annihilated by any integer up to 24"
            with pytest.raises(TorsionBoundError) as info:
                order_in_pi3(r)
            assert str(info.value) == message


@pytest.mark.parametrize(
    "pair, big_n, center, exponents, s_values",
    [
        # x^a = h^{-b} relates the eigenvalue exponent t to s = (t + b r_h) / N;
        # exponents are residues mod N a_j, so -14 reads as 70
        ((3, 1), 28, {"scalar_exponent": 14}, [14, 42, 70, -14], [1, 2, 3, 3]),
        ((2, -1), 18, "trivial", [18], [1]),
        ((5, 1), 10, "trivial", [5], [Fraction(1, 2)]),
    ],
    ids=["scalar_center", "trivial_center", "half_integral"],
)
def test_reader_turns_exponents_into_s_values(pair, big_n, center, exponents, s_values):
    # the profile is padded to N eigenvalues with t = 0, s = b r_h / N
    r_h = center["scalar_exponent"] if isinstance(center, dict) else 0
    padding = big_n - len(exponents)
    doc = {"pairs": [list(pair)], "N": big_n, "center": center,
           "profiles": [{"fiber": 1, "exponents": exponents + [0] * padding}]}
    _, rep = repspec_from_document(doc)
    assert rep.profiles[0].s_values == tuple(
        s_values + [Fraction(pair[1] * r_h, big_n)] * padding
    )


@pytest.mark.parametrize("big_n", [0, -1])
@pytest.mark.parametrize(
    "key, values", [("exponents", [1]), ("s_values", ["1"])], ids=["exponents", "s_values"]
)
def test_reader_rejects_a_nonpositive_n_in_one_message(big_n, key, values):
    doc = {"pairs": [[3, 1]], "N": big_n, "center": "trivial",
           "profiles": [{"fiber": 1, key: values}]}
    with pytest.raises(DomainError) as info:
        repspec_from_document(doc)
    assert str(info.value) == f"N: must be positive, got {big_n}"


@pytest.mark.parametrize("bad", [True, 1.0])
def test_reader_rejects_an_exponent_that_is_not_a_json_integer(bad):
    doc = {"pairs": [[2, -1], [3, 1]], "N": 2, "center": "trivial",
           "profiles": [{"fiber": 1, "s_values": ["0", "1"]},
                        {"fiber": 2, "exponents": [0, bad]}]}
    with pytest.raises(DomainError) as info:
        repspec_from_document(doc)
    assert str(info.value) == f"profiles[1].exponents: expected an integer, got {bad!r}"


def test_seifert_check_document():
    doc = seifert_check_document({"pairs": [[2, -1], [3, 1], [5, 1]]})
    assert doc == {
        "pairs": [[2, -1], [3, 1], [5, 1]],
        "obstruction": "1",
        "is_integral_homology_sphere": True,
    }
    with pytest.raises(InvalidSeifertDataError):
        seifert_check_document({})


def example_two_document():
    return {
        "pairs": [[2, -1], [3, 1], [5, 1]],
        "N": 18,
        "center": "trivial",
        "profiles": [
            {"fiber": 1, "s_values": ["0"] * 8 + ["1"] * 10},
            {"fiber": 2, "s_values": ["0"] * 6 + ["1"] * 6 + ["2"] * 6},
            {
                "fiber": 3,
                "s_values": ["0"] * 2
                + ["1"] * 4
                + ["2"] * 4
                + ["3"] * 4
                + ["4"] * 4,
            },
        ],
    }


def test_einvariant_document_with_s_values():
    out = einvariant_document(example_two_document())
    assert out["kind"] == "e"
    assert out["e_invariant"]["residue"] == {"num": "1", "den": "2"}
    assert out["e_invariant"]["alias"] is None
    assert out["order"] == 2
    assert out["N"] == 18
    assert out["center"] == "trivial"


def test_einvariant_document_with_exponents():
    # the same bundle described through eigenvalue exponents t = N s
    doc = example_two_document()
    for profile in doc["profiles"]:
        profile["exponents"] = [
            18 * int(Fraction(s)) for s in profile.pop("s_values")
        ]
    out = einvariant_document(doc)
    assert out["e_invariant"]["residue"] == {"num": "1", "den": "2"}
    assert out["order"] == 2


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit before 3.10.7"
)
def test_einvariant_document_keeps_a_callers_int_str_limit():
    # the CLI lifts the limit for its whole process, a library caller may keep it
    def document(s):
        return {"pairs": [[1, 0]], "N": 1, "center": "trivial",
                "profiles": [{"fiber": 1, "s_values": [s]}]}

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for s in ("1" * 5000, "1/" + "1" * 5000, "-" + "1" * 4301):
            with pytest.raises(DomainError, match="4300-digit"):
                einvariant_document(document(s))
        assert einvariant_document(document("-" + "1" * 4300))["order"] == 2
        # a short s-value whose e has more digits is Python's own error
        with pytest.raises(ValueError, match="4300 digits"):
            einvariant_document(document("1/" + "3" * 3000))
    finally:
        sys.set_int_max_str_digits(limit)


def test_einvariant_document_scalar_center():
    result = icosahedral_example(1)
    doc = {
        "pairs": [[2, -1], [3, 1], [5, 1]],
        "N": 28,
        "center": {"scalar_exponent": 14},
        "profiles": [
            {"fiber": p.fiber, "s_values": [str(s) for s in p.s_values]}
            for p in result.rep.profiles
        ],
    }
    out = einvariant_document(doc)
    assert out["kind"] == "two_re_times_n_e"
    assert out["e_invariant"]["residue"] == {"num": "1", "den": "3"}
    assert out["order"] == 3


def test_einvariant_document_reads_the_example_writer():
    # the writer's document goes back through the reader: same formula and
    # value; the order only for the trivial-centre examples, since example 1
    # reports candidate orders for e, not the order of 2 Re(N e)
    for k in (1, 2, 3):
        result = icosahedral_example(k)
        out = einvariant_document(example_document(result))
        assert out["kind"] == result.kind
        assert out["e_invariant"] == result.value.to_doc()
        if k != 1:
            assert out["order"] == result.order


def test_einvariant_document_error_paths():
    doc = example_two_document()
    doc["profiles"] = doc["profiles"][:2]
    with pytest.raises(DomainError):
        einvariant_document(doc)
    doc = example_two_document()
    doc["profiles"][0]["fiber"] = 2
    with pytest.raises(DomainError):
        einvariant_document(doc)
    doc = example_two_document()
    doc["center"] = "mysterious"
    with pytest.raises(CentralBehaviorError):
        einvariant_document(doc)
    doc = example_two_document()
    doc["profiles"][0]["s_values"][0] = "one half"
    with pytest.raises(DomainError):
        einvariant_document(doc)
    doc = example_two_document()
    del doc["profiles"][0]["s_values"]
    with pytest.raises(DomainError):
        einvariant_document(doc)
    # the fibers are checked before an exponent looks up its fiber's pair
    doc = example_two_document()
    doc["profiles"][2] = {"fiber": 4, "exponents": [0] * doc["N"]}
    message = r"^profiles: fibers \[1, 2, 4\], not 1..3 once each$"
    with pytest.raises(DomainError, match=message):
        einvariant_document(doc)


def _shift_kernel(m):
    """Psi_m = (x^m - 1) / Phi_m, the product of Phi_d over proper divisors d.

    An integer combination c of the powers of zeta_m vanishes exactly when
    Phi_m divides c(x), that is when c(x) * Psi_m(x) is 0 modulo x^m - 1.
    So x^e maps to Psi_m turned cyclically by e places, and the trace
    identity becomes a linear equation over Z^m.
    """
    psi = [1]
    for d in range(1, m):
        if m % d == 0:
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(psi) + len(phi) - 1)
            for i, a in enumerate(psi):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            psi = out
    psi += [0] * (m - len(psi))
    return [tuple(psi[(i - e) % m] for i in range(m)) for e in range(m)]


def _solve_oracle(m, dimension, trace, allowed):
    """All multiplicity vectors by definition, or None past the search cap.

    mu_e = mu_{-e}, and an exponent whose conjugate is not allowed has
    mu_e = 0; so the unknowns are the conjugation orbits.
    """
    exps = sorted({e % m for e in allowed})
    unknowns = sorted({tuple(sorted({e, -e % m})) for e in exps if -e % m in exps})
    bound = 1
    for members in unknowns:
        bound *= dimension // len(members) + 1
    if bound > 2_000_000:
        return exps, None
    turned = _shift_kernel(m)
    columns = [
        tuple(sum(turned[e][i] for e in members) for i in range(m)) for members in unknowns
    ]
    target = tuple(trace * c for c in turned[0])
    found = []

    def assign(i, remaining, ks, total):
        if i == len(unknowns):
            if remaining == 0 and total == target:
                mu = {e: k for members, k in zip(unknowns, ks) for e in members}
                found.append(tuple(mu.get(e, 0) for e in exps))
            return
        size = len(unknowns[i])
        # the last unknown can only take what is left of the dimension
        last = i == len(unknowns) - 1
        for k in [remaining // size] if last else range(remaining // size + 1):
            step = tuple(t + k * c for t, c in zip(total, columns[i]))
            assign(i + 1, remaining - k * size, ks + [k], step)

    assign(0, dimension, [], (0,) * m)
    return exps, found


def _planted_case(rng, m):
    """Multiplicities constant on each Galois orbit {e : gcd(e, m) = g}, so
    their trace is a rational integer and the solver has something to find."""
    by_gcd = {}
    for e in range(m):
        by_gcd.setdefault(math.gcd(e, m), []).append(e)
    mults = {}
    for orbit in by_gcd.values():
        k = rng.randint(0, 2)
        if k and sum(mults.values()) + k * len(orbit) <= 12:
            mults.update({e: k for e in orbit})
    reduced = element(m, mults)
    extra = rng.sample(range(m), rng.randint(0, min(2, m)))
    allowed = {e + m * rng.randint(-1, 2) for e in set(mults) | set(extra)}
    return sum(mults.values()), reduced[0], tuple(allowed or {0})


def test_multiplicity_solver_matches_the_definition_on_seeded_cases():
    rng = random.Random(4000)
    outcomes = {"solved": 0, "ambiguous": 0, "none": 0, "cap": 0}
    for case in range(4000):
        m = rng.randint(1, 12)
        if case % 2:
            dimension, trace, allowed = _planted_case(rng, m)
        else:
            dimension = rng.randint(0, 12)
            trace = rng.randint(-dimension, dimension)
            allowed = tuple(rng.sample(range(-m, 2 * m), rng.randint(1, m)))
        exps, expected = _solve_oracle(m, dimension, trace, allowed)
        if expected is None:
            with pytest.raises(EnumerationCapError):
                multiplicity_solve(m, dimension, trace, allowed)
            outcomes["cap"] += 1
        elif len(expected) == 1:
            assert multiplicity_solve(m, dimension, trace, allowed) == expected[0]
            outcomes["solved"] += 1
        else:
            with pytest.raises(MultiplicityError) as info:
                multiplicity_solve(m, dimension, trace, allowed)
            assert sorted(info.value.solutions) == sorted(expected)
            kind = "no" if not expected else str(len(expected))
            assert str(info.value) == (
                f"{kind} multiplicity solutions for m={m}, dimension={dimension}, "
                f"trace={trace}, allowed={tuple(exps)}"
            )
            outcomes["ambiguous" if expected else "none"] += 1
    # paired orbits at these sizes stay under the cap; the guards test hits it
    assert outcomes.pop("cap") == 0 and all(outcomes.values()), outcomes
