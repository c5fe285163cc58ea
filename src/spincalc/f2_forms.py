"""Quadratic forms over F2 refining a symplectic pairing.

Vectors of the 2g-dimensional F2 space are Python ints used as bitmasks.
The standard basis is ordered (a_1, ..., a_g, b_1, ..., b_g): bit i is the
a_{i+1} coordinate and bit g + i the b_{i+1} coordinate, and the standard
pairing couples a_i with b_i.  A quadratic form q refines the pairing:

    q(x + y) = q(x) + q(y) + x.y

so q is determined by its values on a basis.  The Arf invariant
sum_i q(a_i) q(b_i) classifies forms of a given genus together with the
dimension; its multiplicative avatar is the sign of the Gauss sum
sum_x (-1)^{q(x)}, which always equals +-2^g (the sign times 2^{-g} times
the sum is 1; sources differ on the printed normalization, the exhaustive
enumeration here is authoritative).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from . import _kernels
from .errors import (
    DegeneratePairingError,
    DimensionMismatchError,
    DomainError,
    EnumerationCapError,
    InvalidFormError,
    _integer,
)

# The largest genus that enumerate_forms lists and arf_gauss sweeps, a fixed
# memory bound: one value table is 4^g bits (8 KiB at g = 8), and _kernels
# keeps the group tables, 144 tables or at most 1.25 MiB at g = 8.  The
# counts are closed forms.
GENUS_CAP = 8


@cache
def _standard_gram(g: int) -> tuple[int, ...]:
    """Gram rows of the standard symplectic pairing in dimension 2g."""
    return tuple(1 << (i + g) % (2 * g) for i in range(2 * g))


def _standard_pair(g: int, x: int, y: int) -> int:
    """x.y under the standard pairing, which couples bit i with bit g + i."""
    return ((x & y >> g) ^ (y & x >> g)).bit_count() & 1


class ArfValue(namedtuple("ArfValue", "additive multiplicative")):
    """The Arf invariant in both of its guises."""

    __slots__ = ()

    def __new__(cls, additive: int, multiplicative: int) -> "ArfValue":
        if _integer(additive) not in (0, 1):
            raise DomainError("additive Arf invariant must be 0 or 1")
        if _integer(multiplicative) != (-1) ** additive:
            raise DomainError("multiplicative Arf invariant must be (-1)^additive")
        return tuple.__new__(cls, (additive, multiplicative))

    @classmethod
    def from_additive(cls, a: int) -> "ArfValue":
        return _ARF[_integer(a) & 1]

    @classmethod
    def from_multiplicative(cls, m: int) -> "ArfValue":
        if _integer(m) not in (1, -1):
            raise DomainError("multiplicative Arf invariant must be +1 or -1")
        return _ARF[0 if m == 1 else 1]


# Every Arf result is one of these two records.
_ARF = (ArfValue(0, 1), ArfValue(1, -1))


class QuadraticForm(namedtuple("QuadraticForm", "g basis_values gram")):
    """A quadratic refinement, stored by its values on a basis.

    basis_values packs q(e_0), ..., q(e_{2g-1}) into a bitmask.  gram is
    None for the standard pairing, otherwise a tuple of 2g Gram-matrix rows
    (alternating and nondegenerate, or construction fails).  A Gram form
    keeps q's values on a symplectic basis, which that check computes.
    """

    def __new__(
        cls, g: int, basis_values: int, gram: tuple[int, ...] | None = None
    ) -> "QuadraticForm":
        _integer(g, 1, "genus must be at least 1", InvalidFormError)
        if not 0 <= _integer(basis_values) < (1 << (2 * g)):
            raise InvalidFormError("basis values must fit in 2g bits")
        if gram is not None:
            gram = tuple(gram)
            n = 2 * g
            if len(gram) != n:
                raise InvalidFormError("Gram matrix must have 2g rows")
            if any(not 0 <= _integer(row) < (1 << n) for row in gram):
                raise InvalidFormError("Gram rows must fit in 2g bits")
            if any((gram[i] >> i) & 1 for i in range(n)):
                raise InvalidFormError("pairing must be alternating")
            transpose = [0] * n
            for i, row in enumerate(gram):
                while row:
                    transpose[(row & -row).bit_length() - 1] |= 1 << i
                    row &= row - 1
            if tuple(transpose) != gram:
                raise InvalidFormError("pairing must be symmetric")
            if gram == _standard_gram(g):
                gram = None
        self = tuple.__new__(cls, (g, basis_values, gram))
        if gram is not None:
            self._symplectic_values  # raises DegeneratePairingError on a radical
        return self

    @cached_property
    def _symplectic_values(self) -> int:
        """q's values on a symplectic basis of gram, from one reduction."""
        return _reduce(self.gram, self.basis_values)[1]

    @property
    def dim(self) -> int:
        return 2 * self.g


def eval_form(q: QuadraticForm, x: int) -> int:
    """q(x) = sum_i x_i q(e_i) + sum_{i<j} x_i x_j B_ij: the cross term is the
    parity of x AND the XOR, over the set bits i of x, of row i above bit i."""
    if not 0 <= _integer(x) < (1 << q.dim):
        raise DomainError("vector must fit in 2g bits")
    gram = q.gram or _standard_gram(q.g)
    upper, bits = 0, x
    while bits:
        low = bits & -bits
        upper ^= gram[low.bit_length() - 1] & -(low << 1)
        bits ^= low
    return (x & q.basis_values).bit_count() + (x & upper).bit_count() & 1


def _reduce(gram: tuple[int, ...], basis_values: int) -> tuple[list[int], int]:
    """A basis (a_1..a_g, b_1..b_g) with a_i.b_j = delta_ij, a_i.a_j = b_i.b_j = 0,
    and q's values on it, packed like basis_values, by symplectic Gram-Schmidt.

    A radical raises DegeneratePairingError: the pairs chosen and candidates
    left always form a basis, so an odd count ends with no partner.  Each
    candidate u carries q(u) (adding v adds q(v) + u.v, then adding w adds
    q(w) alone) and Be_i = gram[i] for the e_i it started as: u - e_i is a
    sum of chosen pairs, to which every later partner y is orthogonal, so
    u.y is the parity of Be_i & y.
    """
    vectors = [1 << i for i in range(len(gram))]
    images = list(gram)
    values = [(basis_values >> i) & 1 for i in range(len(gram))]
    a_side: list[int] = []
    b_side: list[int] = []
    bits = 0
    while vectors:
        v, bv, qv = vectors.pop(0), images.pop(0), values.pop(0)
        for k, u in enumerate(vectors):
            if (bv & u).bit_count() & 1:
                break
        else:
            raise DegeneratePairingError("vector with no symplectic partner")
        w, _, qw = vectors.pop(k), images.pop(k), values.pop(k)
        bits |= qv << len(a_side) | qw << (len(gram) // 2 + len(a_side))
        a_side.append(v)
        b_side.append(w)
        for k, bu in enumerate(images):
            uv = (bu & v).bit_count() & 1
            if (bu & w).bit_count() & 1:
                vectors[k] ^= v
                values[k] ^= qv ^ uv
            if uv:
                vectors[k] ^= w
                values[k] ^= qw
    return a_side + b_side, bits


def _values(q: QuadraticForm) -> int:
    """q's values on a symplectic basis, packed like basis_values; kept by Gram forms."""
    return q.basis_values if q.gram is None else q._symplectic_values


def normalize(q: QuadraticForm) -> QuadraticForm:
    """The same form written in a symplectic basis (standard pairing), its
    values carried through the reduction by q(u + v) = q(u) + q(v) + u.v."""
    # _reduce's values fit in 2g bits, so the checks are skipped, as in _replace.
    return tuple.__new__(QuadraticForm, (q.g, _values(q), None))


def _arf(g: int, values: int) -> ArfValue:
    """sum_i q(a_i) q(b_i), from q's values on a symplectic basis."""
    return _ARF[(values & values >> g).bit_count() & 1]


def arf_basis(q: QuadraticForm) -> ArfValue:
    """Arf invariant as sum_i q(a_i) q(b_i) over a symplectic basis."""
    return _arf(q.g, _values(q))


def arf_gauss(q: QuadraticForm) -> ArfValue:
    """Arf invariant as the sign of the Gauss sum sum_x (-1)^{q(x)}.

    The sum enumerates the 4^g-bit value table of the symplectic values that
    arf_basis reads too, so it checks arf_basis's closed form
    sum_i q(a_i) q(b_i), not the reduction that gave those values on a Gram
    form (the tests check _reduce against loop_symplectic_basis).  It keeps
    the genus cap.  Every packed value mask is a refinement, so the sum is
    +-2^g unless the value tables are at fault.
    """
    _check_cap(q.g)
    total = (1 << 2 * q.g) - 2 * _kernels.form_values(q.g, _values(q)).bit_count()
    if abs(total) != 1 << q.g:
        raise InvalidFormError(f"Gauss sum {total} is not +-2^{q.g}")
    return _ARF[total < 0]


def count_zeros(q: QuadraticForm) -> int:
    """Number of vectors with q(x) = 0, from Arf's closed form
    2^{g-1} (2^g + arf(q)) with arf multiplicative: the three even forms at
    g = 1 have 3 zeros each and the odd form has 1.  No genus is too large.
    """
    return ((1 << q.g) + _arf(q.g, _values(q)).multiplicative) << (q.g - 1)


def _check_cap(g: int) -> None:
    if g > GENUS_CAP:
        raise EnumerationCapError(f"genus {g} exceeds the enumeration cap {GENUS_CAP}")


def enumerate_forms(g: int) -> list[QuadraticForm]:
    """All 4^g standard-pairing forms of genus g, ordered by basis values."""
    _check_cap(_integer(g, 1, "genus must be at least 1"))
    return [QuadraticForm(g, bv) for bv in range(1 << (2 * g))]


def count_by_arf(g: int) -> tuple[int, int]:
    """(forms with arf +1, forms with arf -1) among all 4^g forms of genus g:
    2^{g-1} (2^g + 1) and 2^{g-1} (2^g - 1), at every genus."""
    _integer(g, 1, "genus must be at least 1")
    return ((1 << g) + 1) << (g - 1), ((1 << g) - 1) << (g - 1)


def direct_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """Orthogonal direct sum, with the two bases concatenated blockwise."""
    g1, v1, v2 = q1.g, _values(q1), _values(q2)
    lo = v1 & ((1 << g1) - 1) | (v2 & ((1 << q2.g) - 1)) << g1
    hi = v1 >> g1 | (v2 >> q2.g) << g1
    g = g1 + q2.g
    return QuadraticForm(g, lo | hi << g)


def apply_map(cols: tuple[int, ...], x: int) -> int:
    """Image of x under the linear map whose i-th column is cols[i]."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= cols[i]
        x >>= 1
        i += 1
    return out


def _normal_basis(g: int, values: int) -> list[int]:
    """Columns of a symplectic M that puts the standard form q of genus g with
    these basis values in Arf's normal form: q(M x) has every basis value 0,
    except q(a_1) = q(b_1) = 1 when the Arf invariant is 1.

    Each hyperbolic plane (a_i, b_i) is fixed by its values: (1, 0) takes
    a_i + b_i, (0, 1) takes b_i + a_i, and two (1, 1) planes i and j become
    (a_i + a_j, a_i + a_j + b_i) and (a_j + b_i + b_j, b_i + b_j).  A (1, 1)
    plane left over swaps into plane 1.
    """
    a = [1 << i for i in range(g)]
    b = [1 << (g + i) for i in range(g)]
    odd = None  # a (1, 1) plane still waiting for a partner
    for j in range(g):
        qa, qb = (values >> j) & 1, (values >> (g + j)) & 1
        if qa and not qb:
            a[j] ^= b[j]
        elif qb and not qa:
            b[j] ^= a[j]
        elif qa and odd is None:
            odd = j
        elif qa:
            i, odd = odd, None
            a[i], b[i], a[j], b[j] = (
                a[i] ^ a[j], a[i] ^ a[j] ^ b[i], a[j] ^ b[i] ^ b[j], b[i] ^ b[j]
            )
    if odd is not None:
        a[0], a[odd], b[0], b[odd] = a[odd], a[0], b[odd], b[0]
    return a + b


def forms_isomorphic(
    q1: QuadraticForm, q2: QuadraticForm, witness: bool = False
):
    """Equivalence of forms; with witness=True also a symplectic map T.

    Two refinements of pairings of equal dimension are equivalent exactly
    when their Arf invariants agree.  The witness T is symplectic with
    p2(T x) = p1(x) for every x, where p1 = normalize(q1) and
    p2 = normalize(q2).  It is built at every genus from Arf's normal form:
    with M_p from _normal_basis, T = M_{p2} M_{p1}^{-1}.
    """
    if q1.g != q2.g:
        raise DimensionMismatchError("forms live in different dimensions")
    g = q1.g
    v1, v2 = _values(q1), _values(q2)
    answer = _arf(g, v1) == _arf(g, v2)
    if not witness:
        return answer
    if not answer:
        return False, None
    m1, m2 = _normal_basis(g, v1), _normal_basis(g, v2)
    # M^{-1} x = sum_i (m_{partner(i)} . x) e_i, the partner of column i
    # being column i + g or i - g; m1[i - g] indexes exactly that.
    return True, tuple(
        apply_map(m2, sum(_standard_pair(g, m1[i - g], 1 << k) << i for i in range(2 * g)))
        for k in range(2 * g)
    )


def random_symplectic(g: int, rng) -> tuple[int, ...]:
    """A pseudo-random element of Sp(2g, F2), as a product of transvections.

    Each transvection T_v(x) = x + (x.v) v, v drawn by rng (a random.Random),
    preserves the pairing, so any product does.
    """
    n = 2 * _integer(g)
    cols = [1 << i for i in range(n)]
    for _ in range(3 * n):
        v = rng.randrange(1, 1 << n)
        cols = [c ^ (v if _standard_pair(g, c, v) else 0) for c in cols]
    return tuple(cols)


def form_to_doc(q: QuadraticForm) -> dict:
    """Serialize as {"g": g, "basis_values": bitstring}, bit i first."""
    return {"g": q.g, "basis_values": format(_values(q), f"0{2 * q.g}b")[::-1]}


def form_from_bitstring(g: int, bits: str) -> QuadraticForm:
    if len(bits) != 2 * g or any(c not in "01" for c in bits):
        raise InvalidFormError(
            f"basis values must be a bitstring of length {2 * g}, got {bits!r}"
        )
    bv = sum(1 << i for i, c in enumerate(bits) if c == "1")
    return QuadraticForm(g, bv)
