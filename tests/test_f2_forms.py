"""Tests for quadratic forms over F2 and their Arf invariants."""

import copy
import json
import pickle
import random
import types

import pytest

from spincalc import _kernels, f2_forms
from spincalc.errors import (
    DegeneratePairingError,
    DimensionMismatchError,
    DomainError,
    EnumerationCapError,
    InvalidFormError,
    WitnessSearchError,
)
from spincalc.f2_forms import (
    ArfValue,
    QuadraticForm,
    arf_basis,
    arf_gauss,
    count_by_arf,
    count_zeros,
    direct_sum,
    enumerate_forms,
    eval_form,
    form_from_bitstring,
    form_to_doc,
    forms_isomorphic,
    normalize,
    random_symplectic,
)

from reference import (
    apply_map,
    arf_of_values,
    expanded_value,
    gram_pair,
    is_symplectic,
    loop_symplectic_basis,
    normal_values,
    standard_gram,
    symplectic_group,
    zeros_by_enumeration,
)


def test_arf_value_validation():
    assert ArfValue.from_additive(0).multiplicative == 1
    assert ArfValue.from_additive(1).multiplicative == -1
    assert ArfValue.from_multiplicative(-1).additive == 1
    for args, message in [
        ((0, -1), "multiplicative Arf invariant must be (-1)^additive"),
        ((1, 1), "multiplicative Arf invariant must be (-1)^additive"),
        ((2, 1), "additive Arf invariant must be 0 or 1"),
    ]:
        with pytest.raises(DomainError) as excinfo:
            ArfValue(*args)
        assert str(excinfo.value) == message
    with pytest.raises(DomainError):
        ArfValue.from_multiplicative(0)


def test_quadratic_form_validation():
    for args, error, message in [
        ((0, 0), InvalidFormError, "genus must be at least 1"),
        ((1, 4), InvalidFormError, "basis values must fit in 2g bits"),
        ((1, 0, (2, 1, 0)), InvalidFormError, "Gram matrix must have 2g rows"),
        ((1, 0, (2, 4)), InvalidFormError, "Gram rows must fit in 2g bits"),
        # a Gram matrix with a diagonal entry is not alternating
        ((1, 0, (1, 1)), InvalidFormError, "pairing must be alternating"),
        ((1, 0, (2, 0)), InvalidFormError, "pairing must be symmetric"),
        ((1, 0, (0, 0)), DegeneratePairingError, "vector with no symplectic partner"),
    ]:
        with pytest.raises(error) as excinfo:
            QuadraticForm(*args)
        assert str(excinfo.value) == message
    # the standard Gram matrix normalizes to None
    q = QuadraticForm(2, 5, gram=standard_gram(2))
    assert q.gram is None
    assert q == QuadraticForm(2, 5)
    # so does one given as a list, which then hashes like the tuple form
    q = QuadraticForm(1, 0, [2, 1])
    assert q.gram is None and q == QuadraticForm(1, 0, (2, 1))
    assert hash(q) == hash(QuadraticForm(1, 0))
    q = QuadraticForm(2, 0, [2, 1, 8, 4])
    assert q.gram == (2, 1, 8, 4) and hash(q) == hash(QuadraticForm(2, 0, q.gram))


def checked_form(g, bv, gram):
    """QuadraticForm's checks made one by one, the symmetry check bit pair by
    bit pair; the form, or the class and message of the error raised."""
    n = 2 * g
    try:
        if len(gram) != n:
            raise InvalidFormError("Gram matrix must have 2g rows")
        if any(not 0 <= row < (1 << n) for row in gram):
            raise InvalidFormError("Gram rows must fit in 2g bits")
        if any((gram[i] >> i) & 1 for i in range(n)):
            raise InvalidFormError("pairing must be alternating")
        if any(
            ((gram[i] >> j) & 1) != ((gram[j] >> i) & 1)
            for i in range(n)
            for j in range(i + 1, n)
        ):
            raise InvalidFormError("pairing must be symmetric")
        loop_symplectic_basis(gram)
    except (InvalidFormError, DegeneratePairingError) as exc:
        return type(exc), str(exc)
    return (g, bv, None if gram == standard_gram(g) else tuple(gram))


def built_form(g, bv, gram):
    try:
        return tuple(QuadraticForm(g, bv, gram))
    except (InvalidFormError, DegeneratePairingError) as exc:
        return type(exc), str(exc)


def test_gram_checks_match_the_pairwise_reference():
    # every 4-row 0/1 matrix, then seeded 16-row ones: alternating ones with
    # a bit flipped now and then, so each check fires and some pass
    for bits in range(1 << 16):
        gram = tuple((bits >> (4 * i)) & 15 for i in range(4))
        assert built_form(2, 6, gram) == checked_form(2, 6, gram)
    rng = random.Random(16)
    seen = set()
    for _ in range(2000):
        rows = list(alternating_gram(16, rng.getrandbits(120)))
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows[rng.randrange(16)] ^= 1 << rng.randrange(16)
        want = checked_form(8, 3, tuple(rows))
        assert built_form(8, 3, rows) == want
        seen.add(want[1] if isinstance(want[1], str) else "ok")
    assert len(seen) == 4


def test_genus_one_values():
    # the three even forms have 3 zeros each, the odd form has 1
    expected = {0: (0, 3), 1: (0, 3), 2: (0, 3), 3: (1, 1)}
    for bv, (arf, zeros) in expected.items():
        q = QuadraticForm(1, bv)
        assert arf_basis(q).additive == arf
        assert count_zeros(q) == zeros
    assert count_by_arf(1) == (3, 1)


def test_arf_routes_agree_exhaustively():
    for g in (1, 2, 3, 4):
        for q in enumerate_forms(g):
            assert arf_basis(q) == arf_gauss(q)


def table_zeros(q):
    """4^g minus the popcount of q's value table in the basis normal_values reads."""
    return (1 << 2 * q.g) - _kernels.form_values(q.g, normal_values(q)).bit_count()


def test_zero_counts_follow_the_multiplicative_arf():
    # count_zeros is the closed form 2^{g-1} (2^g + arf), multiplicative arf;
    # some printed statements of this rule swap the two cases, so it is
    # checked against enumeration: vector by vector at g <= 3, by the
    # popcount of the value table on every form at g <= 4, on seeded forms
    # at g = 5 and 6 and on seeded g = 8 Gram forms
    for g in (1, 2, 3):
        for q in enumerate_forms(g):
            assert count_zeros(q) == zeros_by_enumeration(q)
    rng = random.Random(22)
    forms = [q for g in (1, 2, 3, 4) for q in enumerate_forms(g)]
    forms += [QuadraticForm(g, rng.getrandbits(2 * g)) for g in (5, 6) for _ in range(200)]
    forms += [g8_gram_form(seed) for seed in range(20)]
    for q in forms:
        assert count_zeros(q) == table_zeros(q)
    assert {arf_basis(q).additive for q in forms[-20:]} == {0, 1}


def test_count_by_arf_closed_form():
    # the census counted form by form, then past the cap by Arf additivity:
    # a genus g + 1 form is a genus g form plus one of the genus 1 forms,
    # three of which have arf 0 and one arf 1
    for g in range(1, 7):
        n_minus = sum(arf_basis(q).additive for q in enumerate_forms(g))
        assert count_by_arf(g) == ((1 << 2 * g) - n_minus, n_minus)
    for g in range(6, 64):
        n_plus, n_minus = count_by_arf(g)
        assert count_by_arf(g + 1) == (3 * n_plus + n_minus, n_plus + 3 * n_minus)
    for g in (0, -1):
        with pytest.raises(DomainError):
            count_by_arf(g)
        with pytest.raises(DomainError):
            enumerate_forms(g)


def test_refinement_property_for_every_form():
    # q(x + y) = q(x) + q(y) + x.y, checked on full tables
    for g in (1, 2, 3):
        size = 1 << (2 * g)
        gram = standard_gram(g)
        pair_table = [[gram_pair(gram, x, y) for y in range(size)] for x in range(size)]
        for bv in range(size):
            table = _kernels.form_values(g, bv)
            v = [(table >> x) & 1 for x in range(size)]
            for x in range(size):
                for y in range(size):
                    assert v[x ^ y] == v[x] ^ v[y] ^ pair_table[x][y]


def test_fast_pairing_matches_gram_rows():
    # the bit-twiddled standard pairing agrees with the row-by-row one
    for g in (1, 2):
        gram = standard_gram(g)
        for x in range(1 << (2 * g)):
            for y in range(1 << (2 * g)):
                assert f2_forms._standard_pair(g, x, y) == gram_pair(gram, x, y)


def test_eval_form_rejects_vectors_outside_the_space():
    for q in (QuadraticForm(1, 0), QuadraticForm(2, 0), QuadraticForm(2, 0, (2, 1, 8, 4))):
        for x in (1 << q.dim, -1):
            with pytest.raises(DomainError, match="^vector must fit in 2g bits$"):
                eval_form(q, x)


def transformed_form(q, cols):
    """q composed with the linear map given by columns, via basis values."""
    bv = 0
    for i in range(2 * q.g):
        bv |= eval_form(q, cols[i]) << i
    return QuadraticForm(q.g, bv)


def test_random_symplectic_maps_preserve_arf():
    rng = random.Random(20260814)
    for g in (1, 2, 3):
        forms = enumerate_forms(g)
        for _ in range(100):
            cols = random_symplectic(g, rng)
            assert is_symplectic(g, cols)
            q = rng.choice(forms)
            moved = transformed_form(q, cols)
            assert arf_basis(moved) == arf_basis(q)
            # the composed form really is q after the change of basis
            for x in range(1 << (2 * g)):
                assert eval_form(moved, x) == eval_form(q, apply_map(cols, x))


def test_random_symplectic_is_deterministic_per_seed():
    a = random_symplectic(3, random.Random(7))
    b = random_symplectic(3, random.Random(7))
    assert a == b
    # and one seed's draws differ: the sampler does not stop at the identity
    rng = random.Random(7)
    assert len({random_symplectic(g, rng) for g in (2, 3) for _ in range(10)}) > 2


def embed_first(g1, g2, x):
    return (x & ((1 << g1) - 1)) | ((x >> g1) << (g1 + g2))


def embed_second(g1, g2, y):
    return ((y & ((1 << g2) - 1)) << g1) | ((y >> g2) << (2 * g1 + g2))


def interleaved(q1, q2):
    """Basis values of q1 + q2, copied bit by bit: a-coordinates of q1 then
    q2, followed by b-coordinates of q1 then q2."""
    g1, g2 = q1.g, q2.g
    g = g1 + g2
    bv = 0
    for i in range(g1):
        bv |= ((q1.basis_values >> i) & 1) << i
        bv |= ((q1.basis_values >> (g1 + i)) & 1) << (g + i)
    for i in range(g2):
        bv |= ((q2.basis_values >> i) & 1) << (g1 + i)
        bv |= ((q2.basis_values >> (g2 + i)) & 1) << (g + g1 + i)
    return bv


def test_direct_sum_embeds_both_summands():
    for g1 in (1, 2):
        for g2 in (1, 2):
            for bv1 in range(1 << (2 * g1)):
                q1 = QuadraticForm(g1, bv1)
                for bv2 in range(1 << (2 * g2)):
                    q2 = QuadraticForm(g2, bv2)
                    q = direct_sum(q1, q2)
                    assert q.g == g1 + g2
                    assert q.basis_values == interleaved(q1, q2)
                    for x in range(1 << (2 * g1)):
                        for y in range(1 << (2 * g2)):
                            ex = embed_first(g1, g2, x)
                            ey = embed_second(g1, g2, y)
                            assert gram_pair(standard_gram(q.g), ex, ey) == 0
                            assert eval_form(q, ex ^ ey) == eval_form(
                                q1, x
                            ) ^ eval_form(q2, y)


def test_arf_is_additive_under_direct_sum():
    for g1 in (1, 2):
        for g2 in (1, 2):
            for q1 in enumerate_forms(g1):
                for q2 in enumerate_forms(g2):
                    total = arf_basis(direct_sum(q1, q2)).additive
                    assert total == (
                        arf_basis(q1).additive ^ arf_basis(q2).additive
                    )


def test_symplectic_group_sizes():
    assert len(symplectic_group(1)) == 6
    assert len(symplectic_group(2)) == 720
    with pytest.raises(WitnessSearchError):
        symplectic_group(3)


def test_symplectic_group_members_are_symplectic():
    for cols in symplectic_group(1):
        assert is_symplectic(1, cols)
    for cols in symplectic_group(2)[::37]:
        assert is_symplectic(2, cols)


def test_forms_isomorphic_boolean():
    for g in (1, 2, 3):
        forms = enumerate_forms(g)
        for q1 in forms[:: max(1, len(forms) // 8)]:
            for q2 in forms[:: max(1, len(forms) // 8)]:
                expected = arf_basis(q1) == arf_basis(q2)
                assert forms_isomorphic(q1, q2) is expected
    with pytest.raises(DimensionMismatchError):
        forms_isomorphic(QuadraticForm(1, 0), QuadraticForm(2, 0))


def test_forms_isomorphic_witness():
    for g in (1, 2):
        group = set(symplectic_group(g))
        forms = enumerate_forms(g)
        for q1 in forms:
            for q2 in forms:
                result = forms_isomorphic(q1, q2, witness=True)
                if arf_basis(q1) != arf_basis(q2):
                    assert result == (False, None)
                    continue
                ok, cols = result
                assert ok
                assert is_symplectic(g, cols)
                assert cols in group
                for x in range(1 << (2 * g)):
                    assert eval_form(q2, apply_map(cols, x)) == eval_form(q1, x)


def assert_witness(p, r, cols):
    """cols is symplectic and carries the standard form p to r: both refine
    the same pairing, so agreeing on a basis is agreeing everywhere."""
    assert len(cols) == p.dim and is_symplectic(p.g, cols)
    for k in range(p.dim):
        assert eval_form(r, cols[k]) == eval_form(p, 1 << k)


def equal_arf_pair(g, rng):
    bv1 = rng.getrandbits(2 * g)
    while True:
        bv2 = rng.getrandbits(2 * g)
        q1, q2 = QuadraticForm(g, bv1), QuadraticForm(g, bv2)
        if arf_basis(q1) == arf_basis(q2):
            return q1, q2


def test_forms_isomorphic_witness_at_every_genus():
    rng = random.Random(20261018)
    for g in [*range(3, 17), 20, 64]:
        for _ in range(20 if g <= 16 else 3):
            q1, q2 = equal_arf_pair(g, rng)
            ok, cols = forms_isomorphic(q1, q2, witness=True)
            assert ok
            assert_witness(q1, q2, cols)


def test_forms_isomorphic_witness_on_gram_forms():
    # the witness lives in the coordinates of the normalized forms
    rng = random.Random(8)
    for g in (1, 2, 3, 5, 8):
        for _ in range(20):
            q1 = QuadraticForm(g, rng.getrandbits(2 * g), nondegenerate_gram(2 * g, rng))
            q2 = QuadraticForm(g, rng.getrandbits(2 * g), nondegenerate_gram(2 * g, rng))
            ok, cols = forms_isomorphic(q1, q2, witness=True)
            assert ok == (arf_basis(q1) == arf_basis(q2))
            if ok:
                assert_witness(normalize(q1), normalize(q2), cols)
            else:
                assert cols is None


def test_forms_isomorphic_witness_unequal_arf():
    for g in (3, 4, 8, 20, 64):
        even, odd = QuadraticForm(g, 0), QuadraticForm(g, 1 | 1 << g)
        assert forms_isomorphic(even, odd, witness=True) == (False, None)
        assert forms_isomorphic(odd, even, witness=True) == (False, None)


def f2_rank(rows):
    """Rank over F2 of the matrix with the given bitmask rows, by elimination."""
    rows = list(rows)
    rank = 0
    for bit in range(len(rows)):
        pivot = next((r for r in rows if (r >> bit) & 1), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [r ^ pivot if (r >> bit) & 1 else r for r in rows]
        rank += 1
    return rank


def random_invertible(g, rng):
    """An invertible (not necessarily symplectic) matrix over F2."""
    n = 2 * g
    while True:
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        if f2_rank(cols) == n:
            return cols


def conjugated_gram(g, cols):
    """Gram rows of the standard pairing written in the basis cols."""
    gram = standard_gram(g)
    n = 2 * g
    return tuple(
        sum(gram_pair(gram, cols[i], cols[j]) << j for j in range(n)) for i in range(n)
    )


def test_symplectic_basis_on_scrambled_pairings():
    rng = random.Random(99)
    for g in (1, 2, 3, 8):
        n = 2 * g
        for _ in range(10):
            cols = random_invertible(g, rng)
            gram = conjugated_gram(g, cols)
            basis = f2_forms._reduce(gram, 0)[0]
            assert len(basis) == n
            # pairings of the returned basis reproduce the standard ones
            for i in range(n):
                for j in range(n):
                    want = standard_pairing_entry(g, i, j)
                    got = gram_pair(gram, basis[i], basis[j])
                    assert got == want


def standard_pairing_entry(g, i, j):
    if i == j:
        return 0
    if abs(i - j) == g:
        return 1
    return 0


def outcome(basis_of, gram):
    """The basis, or the class and message of the error raised instead."""
    try:
        return basis_of(gram)
    except DegeneratePairingError as exc:
        return type(exc), str(exc)


def reduce_by_loop(gram, basis_values):
    """The loop reference's basis, and q's values on it by the expansion,
    packed like basis_values, for q given by basis_values on the basis e_i."""
    basis = loop_symplectic_basis(gram)
    q = types.SimpleNamespace(
        g=len(gram) // 2, dim=len(gram), gram=gram, basis_values=basis_values
    )
    return basis, sum(expanded_value(q, v) << i for i, v in enumerate(basis))


def test_symplectic_basis_matches_the_loop_reference():
    # every alternating Gram with 2 and 4 rows, and seeded random ones with
    # 6 to 16 rows, each with seeded basis values; odd row counts are always
    # degenerate
    rng = random.Random(8)
    grams = [
        alternating_gram(n, u) for n in (2, 4) for u in range(1 << (n * (n - 1) // 2))
    ]
    grams += [
        alternating_gram(n, rng.getrandbits(n * (n - 1) // 2))
        for n in range(6, 17)
        for _ in range(512)
    ]
    degenerate = 0
    for gram in grams:
        bv = rng.getrandbits(len(gram))
        want = outcome(lambda gram: reduce_by_loop(gram, bv), gram)
        assert outcome(lambda gram: f2_forms._reduce(gram, bv), gram) == want
        degenerate += want[0] is DegeneratePairingError
    assert 0 < degenerate < len(grams)


def nondegenerate_gram(n, rng):
    """A uniformly random nondegenerate alternating Gram matrix with n rows."""
    while True:
        gram = alternating_gram(n, rng.getrandbits(n * (n - 1) // 2))
        if f2_rank(gram) == n:
            return gram


def test_normalize_matches_the_loop_reference():
    # every nondegenerate Gram with 2 and 4 rows under every basis value, and
    # 512 seeded forms for each even row count 6 to 16
    rng = random.Random(10)
    forms = [
        QuadraticForm(n // 2, bv, gram=gram)
        for n in (2, 4)
        for u in range(1 << (n * (n - 1) // 2))
        if f2_rank(gram := alternating_gram(n, u)) == n
        for bv in range(1 << n)
    ]
    forms += [
        QuadraticForm(n // 2, rng.getrandbits(n), gram=nondegenerate_gram(n, rng))
        for n in range(6, 17, 2)
        for _ in range(512)
    ]
    for q in forms:
        want = QuadraticForm(q.g, normal_values(q))
        assert normalize(q) == want
        assert arf_basis(q) == arf_basis(want)
        assert arf_gauss(q) == arf_gauss(want)
        assert count_zeros(q) == count_zeros(want)


def test_eval_form_matches_the_expansion_on_gram_forms():
    # at g = 1 the only nondegenerate pairing is the standard one; every
    # vector up to g = 3, then 0, all ones, each single bit and seeded
    # vectors up to the cap, on standard forms and on Gram forms
    rng = random.Random(3)
    for g in range(1, 9):
        n = 2 * g
        if g <= 3:
            vectors = range(1 << n)
        else:
            vectors = [0, (1 << n) - 1, *(1 << j for j in range(n))]
            vectors += [rng.getrandbits(n) for _ in range(64)]
        for _ in range(10):
            gram = conjugated_gram(g, random_invertible(g, rng))
            bv = rng.randrange(1 << n)
            for q in (QuadraticForm(g, bv), QuadraticForm(g, bv, gram=gram)):
                for x in vectors:
                    assert eval_form(q, x) == expanded_value(q, x), (g, q, x)


def test_symplectic_basis_rejects_degenerate_pairings():
    with pytest.raises(DegeneratePairingError):
        f2_forms._reduce((0, 0), 0)
    with pytest.raises(DegeneratePairingError):
        f2_forms._reduce((2, 1, 0), 0)


def alternating_gram(n, upper):
    """The alternating symmetric n x n Gram rows whose entries above the
    diagonal, read row by row, are the bits of upper."""
    rows = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (upper >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return tuple(rows)


def test_gram_forms_are_rejected_exactly_when_degenerate():
    # every pairing with 2 and 4 rows, and seeded random ones with 6 and 8
    rng = random.Random(2024)
    grams = [
        alternating_gram(n, u) for n in (2, 4) for u in range(1 << (n * (n - 1) // 2))
    ]
    grams += [
        alternating_gram(n, rng.getrandbits(n * (n - 1) // 2))
        for n in (6, 8)
        for _ in range(1000)
    ]
    degenerate = 0
    for gram in grams:
        n = len(gram)
        if f2_rank(gram) < n:
            degenerate += 1
            with pytest.raises(DegeneratePairingError):
                QuadraticForm(n // 2, 0, gram=gram)
        else:
            assert QuadraticForm(n // 2, 0, gram=gram).g == n // 2
    assert 0 < degenerate < len(grams)


def test_normalize_preserves_the_form():
    rng = random.Random(5)
    for g in (1, 2, 3, 8):
        # every vector up to g = 3; 4^8 is too many, so sample at g = 8
        if g <= 3:
            xs = range(1 << (2 * g))
        else:
            xs = [rng.randrange(1 << (2 * g)) for _ in range(512)]
        for _ in range(5):
            cols = random_invertible(g, rng)
            gram = conjugated_gram(g, cols)
            bv = rng.randrange(1 << (2 * g))
            q = QuadraticForm(g, bv, gram=gram)
            std = normalize(q)
            assert std.gram is None
            basis = f2_forms._reduce(gram, 0)[0]
            for x in xs:
                assert eval_form(std, x) == eval_form(q, apply_map(tuple(basis), x))
            assert arf_basis(q) == arf_gauss(q)


def test_enumeration_caps():
    # the list and the Gauss sum enumerate, so they keep the fixed cap; the
    # counts are closed forms and answer at every genus
    message = "genus 9 exceeds the enumeration cap 8"
    with pytest.raises(EnumerationCapError, match=f"^{message}$"):
        enumerate_forms(9)
    with pytest.raises(EnumerationCapError, match=f"^{message}$"):
        arf_gauss(QuadraticForm(9, 0))
    assert count_by_arf(9) == (131328, 130816)
    assert count_zeros(QuadraticForm(9, 0)) == 131328


def test_serialization_round_trip():
    for g in (1, 2, 3):
        for q in enumerate_forms(g)[:: max(1, (1 << (2 * g)) // 8)]:
            doc = form_to_doc(q)
            assert doc["g"] == g
            assert len(doc["basis_values"]) == 2 * g
            assert form_from_bitstring(g, doc["basis_values"]) == q
    assert form_from_bitstring(1, "11") == QuadraticForm(1, 3)
    assert form_from_bitstring(2, "0010") == QuadraticForm(2, 4)
    message = "^basis values must be a bitstring of length 2, got '111'$"
    with pytest.raises(InvalidFormError, match=message):
        form_from_bitstring(1, "111")
    with pytest.raises(InvalidFormError, match="of length 6, got '01'$"):
        form_from_bitstring(3, "01")
    with pytest.raises(InvalidFormError):
        form_from_bitstring(1, "1x")


def test_form_to_doc_normalizes_first():
    rng = random.Random(11)
    cols = random_invertible(2, rng)
    gram = conjugated_gram(2, cols)
    q = QuadraticForm(2, 9, gram=gram)
    doc = form_to_doc(q)
    assert form_from_bitstring(doc["g"], doc["basis_values"]) == normalize(q)


def trimmed_path_forms(rng):
    """Every standard form at g = 1..4, then 512 seeded Gram forms for each
    even row count 6 to 16; each genus fills an even run of indices, so
    forms k and k ^ 1 have the same genus."""
    forms = [QuadraticForm(g, bv) for g in (1, 2, 3, 4) for bv in range(1 << (2 * g))]
    forms += [
        QuadraticForm(n // 2, rng.getrandbits(n), gram=nondegenerate_gram(n, rng))
        for n in range(6, 17, 2)
        for _ in range(512)
    ]
    return forms


def test_packed_value_path_matches_the_reference_routes():
    forms = trimmed_path_forms(random.Random(13))
    values = [normal_values(q) for q in forms]
    for k, (q, bv) in enumerate(zip(forms, values)):
        g = q.g
        a = arf_of_values(g, bv)
        want = ArfValue(a, (-1) ** a)
        # every vector where 4^g is small, the closed form 2^{g-1} (2^g +- 1)
        # from the basis route elsewhere
        if g <= 3:
            zeros = zeros_by_enumeration(q)
            assert 2 * zeros - (1 << (2 * g)) == want.multiplicative << g
        else:
            zeros = (1 << (g - 1)) * ((1 << g) + want.multiplicative)
        for got in (arf_basis(q), arf_gauss(q)):
            assert got == want and type(got) is ArfValue
            assert repr(got) == f"ArfValue(additive={a}, multiplicative={(-1) ** a})"
        assert count_zeros(q) == zeros
        std = QuadraticForm(g, bv)
        p = normalize(q)
        assert p == std and type(p) is QuadraticForm
        assert hash(p) == hash(std) and repr(p) == repr(std)
        assert form_to_doc(q) == {
            "g": g, "basis_values": "".join(str((bv >> i) & 1) for i in range(2 * g))
        }
        r, r_bv = forms[k ^ 1], values[k ^ 1]
        lo = bv & ((1 << g) - 1) | (r_bv & ((1 << r.g) - 1)) << g
        hi = bv >> g | (r_bv >> r.g) << g
        assert direct_sum(q, r) == QuadraticForm(g + r.g, lo | hi << (g + r.g))
        same = a == arf_of_values(r.g, r_bv)
        assert forms_isomorphic(q, r) is same
        ok, cols = forms_isomorphic(q, r, witness=True)
        assert ok is same
        if same:
            assert_witness(std, QuadraticForm(g, r_bv), cols)
        else:
            assert cols is None


def test_arf_values_are_the_two_shared_records():
    assert ArfValue.from_additive(3).additive == 1
    assert ArfValue.from_additive(2).additive == 0
    assert ArfValue.from_additive(3) is ArfValue.from_additive(1)
    assert ArfValue.from_multiplicative(-1) is ArfValue.from_additive(1)
    q = QuadraticForm(2, 0b1111)
    assert arf_basis(q) is arf_gauss(q) is ArfValue.from_multiplicative(1)
    with pytest.raises(DomainError) as excinfo:
        ArfValue.from_multiplicative(0)
    assert str(excinfo.value) == "multiplicative Arf invariant must be +1 or -1"


def test_gauss_routes_enumerate_the_value_table(monkeypatch):
    # one full 4^g table per arf_gauss call, so the Gauss route stays an
    # independent check on the basis route rather than its closed form; the
    # counts are closed forms and build no table
    calls = []
    table = _kernels.form_values

    def spy(g, basis_values):
        calls.append((g, basis_values))
        return table(g, basis_values)

    monkeypatch.setattr(_kernels, "form_values", spy)
    rng = random.Random(17)
    forms = [QuadraticForm(g, bv) for g in (1, 2, 3) for bv in range(1 << (2 * g))]
    forms += [
        QuadraticForm(n // 2, rng.getrandbits(n), gram=nondegenerate_gram(n, rng))
        for n in (4, 6, 10, 16)
        for _ in range(20)
    ]
    for q in forms:
        calls.clear()
        arf_gauss(q)
        assert calls == [(q.g, normalize(q).basis_values)]
        calls.clear()
        count_zeros(q), count_by_arf(q.g)
        assert calls == []


def g8_gram_form(seed):
    """A seeded genus-8 form handed over by a non-standard Gram matrix."""
    rng = random.Random(seed)
    q = QuadraticForm(8, rng.getrandbits(16), conjugated_gram(8, random_invertible(8, rng)))
    assert q.gram is not None
    return q


def test_a_gram_form_is_reduced_once(monkeypatch):
    # the constructor's degeneracy check is the one symplectic reduction;
    # every later query reads the values it kept
    calls = []
    reduce = f2_forms._reduce

    def spy(gram, basis_values):
        calls.append(gram)
        return reduce(gram, basis_values)

    monkeypatch.setattr(f2_forms, "_reduce", spy)
    q = g8_gram_form(1)
    arf_basis(q), arf_gauss(q), count_zeros(q), normalize(q), form_to_doc(q)
    direct_sum(q, q), forms_isomorphic(q, q, witness=True)
    assert calls == [q.gram]


def answers(q):
    return arf_basis(q), arf_gauss(q), count_zeros(q), normalize(q)


def test_forms_built_without_the_constructor_answer_alike():
    # _replace, _make, copy and pickle skip __new__; each record answers
    # from its own fields, never from values kept by the record it came from
    q, other = g8_gram_form(2), g8_gram_form(3)
    answers(q), answers(other)
    fresh = answers(QuadraticForm(*q))
    built = [
        other._replace(basis_values=q.basis_values, gram=q.gram),
        QuadraticForm._make(q),
        copy.copy(q),
        copy.deepcopy(q),
        pickle.loads(pickle.dumps(q)),
    ]
    for record in built:
        assert record == q
        assert answers(record) == fresh
    moved = q._replace(basis_values=other.basis_values)
    assert answers(moved) == answers(QuadraticForm(*moved))
    # a degenerate Gram still fails, at the first query rather than when built
    degenerate = q._replace(gram=(0,) * 16)
    for _ in range(2):
        with pytest.raises(DegeneratePairingError):
            arf_basis(degenerate)


def test_the_kept_values_stay_out_of_the_record():
    queried, unqueried = g8_gram_form(4), QuadraticForm._make(g8_gram_form(4))
    answers(queried)
    for view in (lambda q: q, hash, repr, len, tuple, json.dumps, QuadraticForm._asdict):
        assert view(queried) == view(unqueried)
    assert queried._fields == ("g", "basis_values", "gram")
