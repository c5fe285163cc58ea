"""Differential tests of the packed-bitset kernels against per-vector routes."""

import pytest

from spincalc import _kernels
from spincalc.f2_forms import QuadraticForm, arf_basis, eval_form


def test_parity_table():
    # bit x of C_j is bit j of x, so the XOR of all masks is popcount(x) mod 2
    for nbits in (0, 1, 5, 10):
        masks = _kernels._coordinate_masks(nbits)
        assert len(masks) == nbits
        parity = 0
        for j, mask in enumerate(masks):
            assert mask >> (1 << nbits) == 0
            for x in range(1 << nbits):
                assert (mask >> x) & 1 == (x >> j) & 1
            parity ^= mask
        for x in range(1 << nbits):
            assert (parity >> x) & 1 == x.bit_count() & 1


def test_parity_table_is_read_only():
    # the cache hands the same masks to every caller
    with pytest.raises(TypeError):
        _kernels._coordinate_masks(4)[0] = 1


def test_pair_part_table():
    for g in (1, 2, 3):
        table = _kernels._pair_part(g)
        for x in range(1 << (2 * g)):
            lo = x & ((1 << g) - 1)
            hi = x >> g
            assert (table >> x) & 1 == (lo & hi).bit_count() & 1


def test_form_values_match_pointwise_evaluation():
    for g in (1, 2, 3):
        for bv in range(1 << (2 * g)):
            q = QuadraticForm(g, bv)
            values = _kernels.form_values(g, bv)
            assert values >> (1 << (2 * g)) == 0
            for x in range(1 << (2 * g)):
                assert (values >> x) & 1 == eval_form(q, x)


def test_zero_form_table_is_the_arf_table():
    # form bv has basis Arf invariant sum_i bv_{a_i} bv_{b_i} = q0(bv)
    for g in (1, 2, 3):
        table = _kernels.form_values(g, 0)
        assert table >> (1 << (2 * g)) == 0
        for bv in range(1 << (2 * g)):
            assert (table >> bv) & 1 == arf_basis(QuadraticForm(g, bv)).additive


def test_gauss_sums_and_zero_counts_are_linked():
    # the Gauss sum counts zeros with weight +1 and nonzeros with -1,
    # so zeros = (4^g + S) / 2; the zeros are counted vector by vector
    for g in (1, 2, 3, 4):
        size = 1 << (2 * g)
        for bv in range(size):
            q = QuadraticForm(g, bv)
            zeros = sum(1 for x in range(size) if eval_form(q, x) == 0)
            gauss = size - 2 * _kernels.form_values(g, bv).bit_count()
            assert gauss in (-(1 << g), 1 << g)
            assert 2 * zeros == size + gauss
