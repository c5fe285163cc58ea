"""Exhaustive GF(2) enumeration on packed bitsets.

A table of values over all 4^g vectors of the 2g-dimensional space is one
Python int of 4^g bits: bit x is the value at vector x.  Tables of linear
and quadratic functions are built for every vector at once from the
coordinate masks C_j, whose bit x is bit j of x, so each vector is still
evaluated and popcounts do the counting.

All kernels assume the standard symplectic pairing on basis
(a_1 .. a_g, b_1 .. b_g): bit i pairs with bit g + i.

A form's table is looked up, not summed mask by mask: the planes (a_i, b_i)
go in groups of three, each keeping one table per choice of its basis values.
The fixed f2_forms.GENUS_CAP = 8 bounds the genus, so at most 144 tables of
8 KiB, 1.25 MiB in all, are built on first use and kept; the masks are not.
"""

from __future__ import annotations

from functools import lru_cache


def _coordinate_masks(n: int) -> tuple[int, ...]:
    """C_0 .. C_{n-1} over the 2^n vectors: bit x of C_j is bit j of x."""
    masks: tuple[int, ...] = ()
    for k in range(n):
        size = 1 << k
        # each mask repeats over the next 2^k vectors; C_k is 2^k ones over 2^k zeros
        masks = (*(m | m << size for m in masks), ((1 << size) - 1) << size)
    return masks


@lru_cache(maxsize=None)
def _group_tables(g: int) -> tuple[tuple[int, int, int, int, tuple[int, ...]], ...]:
    """(a_shift, a_mask, b_shift, b_mask, tables) for each group of k <= 3
    planes s .. s+k-1.  Table c is the group's part sum_i x_{a_i} x_{b_i} of
    q0 XOR the coordinate masks of the basis values that c picks, its low k
    bits for q(a_s) .. q(a_{s+k-1}) and its high k bits for the b's, so
    c = basis_values >> a_shift & a_mask | basis_values >> b_shift & b_mask.
    """
    masks = _coordinate_masks(2 * g)
    groups = []
    for s in range(0, g, 3):
        k = min(3, g - s)
        coords = [*range(s, s + k), *range(g + s, g + s + k)]
        tables = [0]
        for i in range(s, s + k):
            tables[0] ^= masks[i] & masks[g + i]
        for c in range(1, 1 << 2 * k):
            low = c & -c
            tables.append(tables[c ^ low] ^ masks[coords[low.bit_length() - 1]])
        lo = (1 << k) - 1
        groups.append((s, lo, g + s - k, lo << k, tuple(tables)))
    return tuple(groups)


def form_values(g: int, basis_values: int) -> int:
    """q(x) for every vector x, packed as bit x of an int of 4^g bits: the
    XOR of one table per group of planes, each picked by basis_values."""
    groups = iter(_group_tables(g))
    a_shift, a_mask, b_shift, b_mask, tables = next(groups)
    table = tables[basis_values >> a_shift & a_mask | basis_values >> b_shift & b_mask]
    for a_shift, a_mask, b_shift, b_mask, tables in groups:
        table ^= tables[basis_values >> a_shift & a_mask | basis_values >> b_shift & b_mask]
    return table
