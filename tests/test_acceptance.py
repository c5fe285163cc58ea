"""Acceptance checks, one per numbered criterion, each reporting a line.

Every test prints exactly one PASS or FAIL line through the capture
bypass so the verdicts stay visible in a plain pytest run.
"""

import random
from fractions import Fraction

from spincalc.char_classes import (
    HP_GENS,
    SPHERE_GENS,
    hp_infinity_kappa,
    lambda_kappa_difference,
    proj_bundle_kappa,
    riemann_roch_dim,
    serre_duality_check,
    sphere_kappa,
    torus_kappa,
    torus_lambda,
)
from spincalc.exact_arith import (
    ModZ,
    bernoulli_quotient,
    divisor_oriented,
    divisor_spin,
    von_staudt_den,
)
from spincalc.f2_forms import (
    QuadraticForm,
    apply_map,
    arf_basis,
    arf_gauss,
    count_by_arf,
    count_zeros,
    direct_sum,
    enumerate_forms,
    eval_form,
    random_symplectic,
)
from spincalc.icosa_group import (
    IDENTITY,
    MINUS_IDENTITY,
    center_elements,
    element_order,
    enumerate_group,
    find_presentation_triple,
    mul,
    power,
    verify_perfect,
)
from spincalc.polynomials import IntPolynomial
from spincalc.seifert import (
    POINCARE,
    homology_sphere_obstruction,
    icosahedral_example,
    multiplicity_solve,
    regular_increment,
    stabilized_e,
)


def report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_acceptance_01_arf_oracle_equivalence(capsys):
    ok = all(
        arf_basis(q) == arf_gauss(q)
        for g in (1, 2, 3, 4)
        for q in enumerate_forms(g)
    )
    report(capsys, 1, "arf basis route equals Gauss sum route, g <= 4", ok)


def test_acceptance_02_form_counts(capsys):
    ok = True
    for g in range(1, 7):
        n_minus = sum(arf_basis(q).additive for q in enumerate_forms(g))
        ok = ok and count_by_arf(g) == ((1 << 2 * g) - n_minus, n_minus) == (
            2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1)
        )
    report(capsys, 2, "form census by Arf invariant, g <= 6", ok)


def test_acceptance_03_zero_counts(capsys):
    ok = True
    for g in (1, 2, 3, 4):
        for q in enumerate_forms(g):
            zeros = sum(1 for x in range(1 << (2 * g)) if eval_form(q, x) == 0)
            sign = arf_basis(q).multiplicative
            ok = ok and zeros == 2 ** (g - 1) * (2**g + sign) == count_zeros(q)
    report(capsys, 3, "zeros = 2^{g-1} (2^g + arf) for every form, g <= 4", ok)


def test_acceptance_04_additivity_and_invariance(capsys):
    ok = True
    for g1 in (1, 2):
        for g2 in (1, 2):
            for q1 in enumerate_forms(g1):
                for q2 in enumerate_forms(g2):
                    total = arf_basis(direct_sum(q1, q2)).additive
                    ok = ok and total == (
                        arf_basis(q1).additive ^ arf_basis(q2).additive
                    )
    rng = random.Random(303)
    for g in (1, 2, 3):
        forms = enumerate_forms(g)
        for _ in range(100):
            cols = random_symplectic(g, rng)
            q = rng.choice(forms)
            bv = 0
            for i in range(2 * g):
                bv |= eval_form(q, cols[i]) << i
            ok = ok and arf_basis(QuadraticForm(g, bv)) == arf_basis(q)
    report(capsys, 4, "Arf additivity and symplectic invariance", ok)


def test_acceptance_05_bernoulli_von_staudt(capsys):
    ok = True
    for k in range(1, 31):
        exact = bernoulli_quotient(k).denominator
        ok = ok and exact % 2 == 0 and von_staudt_den(k) == exact
    report(capsys, 5, "von Staudt denominators match exact rationals, k <= 30", ok)


def test_acceptance_06_divisibility_table(capsys):
    ok = divisor_oriented(1) == 12 and divisor_oriented(3) == 120
    ok = ok and all(
        divisor_spin(2 * n).spin_divisor == 2 ** (2 * n + 1) for n in range(1, 11)
    )
    ok = ok and divisor_spin(1).spin_divisor == 48
    for n in range(1, 31):
        bound = divisor_spin(n)
        quotient, remainder = divmod(bound.spin_divisor, divisor_oriented(n))
        ok = ok and remainder == 0 and quotient & (quotient - 1) == 0
    report(capsys, 6, "kappa divisibility bounds, oriented and spin", ok)


def test_acceptance_07_characteristic_classes(capsys):
    p1 = IntPolynomial.generator(SPHERE_GENS, "p1")
    u = IntPolynomial.generator(HP_GENS, "u")
    ok = all(
        sphere_kappa(n)
        == (2 * p1 ** (n // 2) if n % 2 == 0 else IntPolynomial.zero(SPHERE_GENS))
        for n in range(0, 41)
    )
    for n in range(0, 21):
        specialized = proj_bundle_kappa(n).substitute(HP_GENS, {"c1": 0, "c2": u})
        ok = ok and hp_infinity_kappa(n) == specialized
        if n % 2 == 0:
            k = n // 2
            ok = ok and hp_infinity_kappa(n) == ((-1) ** k * 2 ** (2 * k + 1)) * u**k
    for n in range(0, 41):
        diff = lambda_kappa_difference(n)
        ok = ok and (2 * diff).is_zero
        if n in (0, 1, 2, 4):
            ok = ok and diff.is_zero
    for n in range(0, 21):
        ok = ok and torus_kappa(n).is_zero
        ok = ok and torus_lambda(n) == ((-1) ** n * (1 - 2**n)) * u**n
    report(capsys, 7, "closed forms for kappa and lambda classes", ok)


def test_acceptance_08_riemann_roch_identity_and_spots(capsys):
    ok = all(
        serre_duality_check(g, m) for g in range(0, 11) for m in range(-10, 11)
    )
    ok = ok and riemann_roch_dim(3, 1).dimension == 3
    ok = ok and riemann_roch_dim(4, 2).dimension == 9
    report(capsys, 8, "index identity on the box and two table spots", ok)


def test_acceptance_08_riemann_roch_reference_spot(capsys):
    # The source table prints 3 here, but 3 is the m = -1 entry (the
    # holomorphic vector fields, h^0(O(2))), most likely a one-row slip.
    # On the sphere K = O(-2), so K^-2 = O(4): its sections are the
    # polynomials of degree <= 4, deg + 1 = 5 of them.  The cokernel
    # H^0(K^3) = H^0(O(-6)) is 0, so 5 is also what the index identity
    # (2m - 1)(g - 1) gives at g = 0, m = -2.
    degree = -2 * (2 * 0 - 2)  # deg K^m = m(2g - 2) = 4
    ok = riemann_roch_dim(0, -2).dimension == degree + 1
    report(capsys, 8, "genus 0, power -2 table spot", ok)


def test_acceptance_09_worked_examples(capsys):
    ex1 = icosahedral_example(1)
    ex2 = icosahedral_example(2)
    ex3 = icosahedral_example(3)
    ok = ex2.value == ModZ(Fraction(1, 2))
    ok = ok and ex3.value == ModZ(Fraction(-1, 12)) and ex3.order == 12
    ok = ok and ex1.value == ModZ(Fraction(1, 3))
    ok = ok and ex1.kind == "two_re_times_n_e"
    ok = ok and ex1.order_constraint == (6, 12, 24)
    ok = ok and multiplicity_solve(6, 28, 2, (1, 3, 5)) == (10, 8, 10)
    report(capsys, 9, "worked flat bundles on the Poincare sphere", ok)


def test_acceptance_10_stabilization(capsys):
    ok = regular_increment() == ModZ(Fraction(-1, 3))
    for n in range(0, 11):
        ok = ok and stabilized_e(n) == ModZ(
            Fraction(-1, 12) - Fraction(n, 3)
        )
    report(capsys, 10, "stabilization by the regular flat bundle", ok)


def test_acceptance_11_group_model(capsys):
    group = enumerate_group()
    ok = len(group) == 120
    ok = ok and verify_perfect()
    ok = ok and set(center_elements()) == {IDENTITY, MINUS_IDENTITY}
    involutions = [g for g in group if element_order(g) == 2]
    ok = ok and involutions == [MINUS_IDENTITY]
    t = find_presentation_triple()
    ok = ok and power(t.x1, 2) == t.h
    ok = ok and power(t.x2, 3) == t.h
    ok = ok and power(t.x3, 5) == t.h
    ok = ok and mul(mul(t.x1, t.x2), t.x3) == IDENTITY
    ok = ok and all(mul(t.h, x) == mul(x, t.h) for x in (t.x1, t.x2, t.x3))
    report(capsys, 11, "binary icosahedral group model", ok)


def test_acceptance_12_poincare_sphere(capsys):
    ok = homology_sphere_obstruction(POINCARE) == 1
    report(capsys, 12, "homology sphere criterion on the Poincare data", ok)
