"""Differential tests of the packed-bitset kernels against per-vector routes."""

import random
import sys

import pytest

from spincalc import _kernels
from spincalc.f2_forms import GENUS_CAP, QuadraticForm, arf_basis, eval_form

from reference import coordinate_masks, form_values_by_masks


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
    # the product doubles smaller masks; the oracle divides, as at g = 8
    for nbits in (*range(11), 16):
        assert _kernels._coordinate_masks(nbits) == coordinate_masks(nbits), nbits


def test_parity_table_is_read_only():
    # masks come back as a tuple, like the per-genus cached tables built from them
    with pytest.raises(TypeError):
        _kernels._coordinate_masks(4)[0] = 1


def test_pair_part_table():
    # the reference's table of the zero form is q0(x) = sum_i x_{a_i} x_{b_i}
    for g in (1, 2, 3):
        table = form_values_by_masks(g, 0)
        for x in range(1 << (2 * g)):
            lo = x & ((1 << g) - 1)
            hi = x >> g
            assert (table >> x) & 1 == (lo & hi).bit_count() & 1


def test_grouped_tables_match_the_mask_route():
    # planes go in groups of three, so g = 1..8 covers last groups of one,
    # two and three planes; every input up to g = 3, then 0, all ones, each
    # single bit and seeded values, so each group boundary is crossed
    rng = random.Random(26)
    for g in range(1, 9):
        n = 2 * g
        if g <= 3:
            inputs = range(1 << n)
        else:
            inputs = [0, (1 << n) - 1, *(1 << j for j in range(n))]
            inputs += [rng.getrandbits(n) for _ in range(64)]
        for bv in inputs:
            assert _kernels.form_values(g, bv) == form_values_by_masks(g, bv), (g, bv)


def test_group_tables_at_the_cap_fit_in_their_bound():
    # the cap is a memory bound: 144 tables of 8 KiB at g = 8
    groups = _kernels._group_tables(GENUS_CAP)
    size = sys.getsizeof(groups)
    for group in groups:
        size += sys.getsizeof(group) + sum(sys.getsizeof(part) for part in group[:4])
        size += sys.getsizeof(group[4]) + sum(sys.getsizeof(t) for t in group[4])
    assert sum(len(group[4]) for group in groups) == 144
    assert size <= 1.25 * 2**20


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
