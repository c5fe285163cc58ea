"""Exhaustive GF(2) enumeration on packed bitsets.

A table of values over all 4^g vectors of the 2g-dimensional space is one
Python int of 4^g bits: bit x is the value at vector x.  Tables of linear
and quadratic functions are built for every vector at once from the
coordinate masks C_j, whose bit x is bit j of x, so each vector is still
evaluated and popcounts do the counting.

All kernels assume the standard symplectic pairing on basis
(a_1 .. a_g, b_1 .. b_g): bit i pairs with bit g + i.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def _coordinate_masks(n: int) -> tuple[int, ...]:
    """C_0 .. C_{n-1} over the 2^n vectors: bit x of C_j is bit j of x."""
    full = (1 << (1 << n)) - 1
    masks = []
    for j in range(n):
        width = 1 << j
        # blocks of `width` zeros under `width` ones, from bit 0 up to bit 2^n
        masks.append(full // ((1 << (2 * width)) - 1) * (((1 << width) - 1) << width))
    return tuple(masks)


@lru_cache(maxsize=None)
def _pair_part(g: int) -> int:
    """Table of q0(x) = sum_i x_{a_i} x_{b_i} mod 2.

    This is the purely quadratic part of any form in the standard basis,
    shared by all forms of the same genus.
    """
    masks = _coordinate_masks(2 * g)
    table = 0
    for i in range(g):
        table ^= masks[i] & masks[g + i]
    return table


def form_values(g: int, basis_values: int) -> int:
    """q(x) for every vector x, packed as bit x of an int of 4^g bits: the pair
    part XOR the coordinate masks C_j at the set bits j of basis_values only."""
    masks = _coordinate_masks(2 * g)
    table = _pair_part(g)
    while basis_values:
        table ^= masks[(basis_values & -basis_values).bit_length() - 1]
        basis_values &= basis_values - 1
    return table
