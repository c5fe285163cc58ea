"""Seifert fibered homology spheres and e-invariants of flat bundles.

A Seifert fibration over the 2-sphere is encoded by its list of pairs
(a_j, b_j) of coprime integers with a_j >= 1.  Writing a for the product of
the a_j, the total space is an integral homology sphere exactly when
a * sum_j b_j / a_j = +-1; the Poincare sphere is ((2,-1), (3,1), (5,1)).

A flat bundle on such a sphere is described here by an eigenvalue profile:
for each exceptional fiber j, the N eigenvalues of the holonomy x_j are
zeta_{N a_j}^{N s - b_j r_h} for rational parameters s, where the central
element h acts by the scalar zeta_N^{r_h} (r_h = 0 for a trivial center).
The e-invariant of the bundle lives in Q/Z.  When h acts trivially,

    e = - sum_j sum_k a s_k(j)^2 / (2 a_j^2)  (mod Z),

and for a general scalar central action the computable quantity is

    2 Re(N e) = - sum_j sum_k sum_l a (s_k(j) - s_l(j))^2 / (2 a_j^2)  (mod Z).
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import (
    CentralBehaviorError,
    DomainError,
    EnumerationCapError,
    InvalidSeifertDataError,
    MultiplicityError,
    TorsionBoundError,
    _integer,
)
from .exact_arith import ModZ


class SeifertData(namedtuple("SeifertData", "pairs")):
    """Pairs (a_j, b_j), each coprime with a_j >= 1."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]) -> "SeifertData":
        for a, b in pairs:
            _integer(a, 1, "fiber order {} must be positive", InvalidSeifertDataError)
            if math.gcd(a, _integer(b)) != 1:
                raise InvalidSeifertDataError(f"pair ({a}, {b}) is not coprime")
        return tuple.__new__(cls, (pairs,))

    @property
    def a(self) -> int:
        out = 1
        for aj, _ in self.pairs:
            out *= aj
        return out


POINCARE = SeifertData(((2, -1), (3, 1), (5, 1)))


def homology_sphere_obstruction(d: SeifertData) -> Fraction:
    """a * sum_j b_j / a_j; the space is a homology sphere iff this is +-1."""
    total = sum((Fraction(b, a) for a, b in d.pairs), Fraction(0))
    return d.a * total


def is_integral_homology_sphere(d: SeifertData) -> bool:
    return abs(homology_sphere_obstruction(d)) == 1


class FixedPointData(namedtuple("FixedPointData", "genus counts")):
    """Fixed point counts of the exceptional holonomies on a genus-g surface.

    The Lefschetz trace on first homology is 2 - F for F fixed points, the
    holonomy being orientation preserving of finite order.
    """

    __slots__ = ()

    def traces(self) -> tuple[int, ...]:
        return tuple(lefschetz_trace(f) for f in self.counts)


def lefschetz_trace(fixed_points: int) -> int:
    return 2 - _integer(fixed_points, 0, "fixed point count must be nonnegative")


class EigenvalueProfile(namedtuple("EigenvalueProfile", "fiber s_values")):
    """The multiset of s-parameters (a tuple of Fractions) of the holonomy at
    one exceptional fiber."""

    __slots__ = ()


class RepSpec(namedtuple("RepSpec", "dimension scalar_exponent profiles")):
    """Eigenvalue data of a flat bundle: one profile per exceptional fiber.

    scalar_exponent is r_h for a scalar central action, None when the center
    acts trivially.
    """

    __slots__ = ()

    def __new__(
        cls,
        dimension: int,
        scalar_exponent: int | None,
        profiles: tuple[EigenvalueProfile, ...],
    ) -> "RepSpec":
        _integer(dimension, 1, "dimension must be positive")
        if scalar_exponent is not None:
            _integer(scalar_exponent)
        for p in profiles:
            if len(p.s_values) != dimension:
                raise DomainError(
                    f"profile for fiber {p.fiber} has {len(p.s_values)} "
                    f"eigenvalues, expected {dimension}"
                )
        return tuple.__new__(cls, (dimension, scalar_exponent, profiles))

    @property
    def trivial_center(self) -> bool:
        return self.scalar_exponent is None or self.scalar_exponent == 0


def _matched_profiles(d: SeifertData, spec: RepSpec) -> list:
    expected = list(range(1, len(d.pairs) + 1))
    if [p.fiber for p in spec.profiles] != expected:
        raise DomainError("profiles must be given for fibers 1..n in order")
    return list(zip(d.pairs, spec.profiles))


def e_simple(d: SeifertData, spec: RepSpec) -> ModZ:
    """e = - sum_j sum_k a s_k(j)^2 / (2 a_j^2) in Q/Z, for trivial center."""
    if not spec.trivial_center:
        raise CentralBehaviorError("formula requires the center to act trivially")
    a = d.a
    total = Fraction(0)
    for (aj, _), profile in _matched_profiles(d, spec):
        for s in profile.s_values:
            total -= Fraction(a) * s * s / (2 * aj * aj)
    return ModZ(total)


def e_general(d: SeifertData, spec: RepSpec) -> ModZ:
    """2 Re(N e) = - sum_j sum_k sum_l a (s_k - s_l)^2 / (2 a_j^2) in Q/Z.

    Valid whenever the center acts by a scalar, which includes the trivial
    action with r_h = 0.
    """
    a = d.a
    total = Fraction(0)
    for (aj, _), profile in _matched_profiles(d, spec):
        for sk in profile.s_values:
            for sl in profile.s_values:
                diff = sk - sl
                total -= Fraction(a) * diff * diff / (2 * aj * aj)
    return ModZ(total)


_SOLVE_CAP = 2_000_000


def multiplicity_solve(
    m: int, dimension: int, trace: int, allowed: tuple[int, ...]
) -> tuple[int, ...]:
    """Unique nonnegative multiplicities of the eigenvalues zeta_m^e.

    Finds all vectors (mu_e) over the allowed exponents with
    sum mu_e = dimension and sum mu_e zeta_m^e = trace, the latter checked
    exactly in Z[zeta_m].  Multiplicities pair up under conjugation,
    mu_e = mu_{m-e}, so the unknowns are the conjugation orbits inside the
    allowed set; an allowed exponent whose conjugate is excluded keeps
    multiplicity 0.  Returns the multiplicities aligned with the sorted
    allowed exponents; raises MultiplicityError carrying the full solution
    list when there is no solution or more than one.
    """
    _integer(m, 1, "root-of-unity order must be positive")
    _integer(dimension, 0, "dimension must be nonnegative")
    _integer(trace)
    exps = tuple(sorted(set(_integer(e) % m for e in allowed)))
    if not exps:
        raise DomainError("allowed exponent set is empty")
    orbits = sorted({tuple(sorted({e, -e % m})) for e in exps if -e % m in exps})

    bound = 1
    for orbit in orbits:
        bound *= dimension // len(orbit) + 1
        if bound > _SOLVE_CAP:
            raise EnumerationCapError("multiplicity search space too large")

    from . import cyclotomic
    target = cyclotomic.element(m, {0: trace})
    solutions: list[tuple[int, ...]] = []

    def search(mus: tuple[int, ...], remaining: int) -> None:
        if len(mus) == len(orbits):  # a dict only where the dimension is used up
            if remaining == 0:
                counts = {e: mu for orbit, mu in zip(orbits, mus) for e in orbit}
                if cyclotomic.element(m, counts) == target:
                    solutions.append(tuple(counts.get(e, 0) for e in exps))
            return
        size = len(orbits[len(mus)])
        last = len(mus) == len(orbits) - 1  # the last orbit takes what is left
        for mu in [remaining // size] if last else range(remaining // size + 1):
            search(mus + (mu,), remaining - mu * size)

    search((), dimension)
    if len(solutions) != 1:
        kind = "no" if not solutions else f"{len(solutions)}"
        raise MultiplicityError(
            f"{kind} multiplicity solutions for m={m}, dimension={dimension}, "
            f"trace={trace}, allowed={exps}",
            solutions=tuple(solutions),
        )
    return solutions[0]


class IcosahedralResult(
    namedtuple(
        "IcosahedralResult",
        "example data fixed_points rep kind value order order_constraint",
    )
):
    """One worked flat bundle on the Poincare sphere, fully evaluated: its
    SeifertData, FixedPointData and RepSpec, the e-formula kind and its ModZ
    value, and the order (or the candidate orders) of that value."""

    __slots__ = ()


_CannedExample = namedtuple(
    "_CannedExample", "genus scalar_exponent fixed_points order_constraint"
)


_EXAMPLES = {
    1: _CannedExample(14, 14, (2, 0, 0), (6, 12, 24)),
    2: _CannedExample(9, None, (4, 2, 4), None),
    3: _CannedExample(5, None, (2, 4, 2), None),
}


def _fiber_eigenvalue_structure(
    pair: tuple[int, int], big_n: int, r_h: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """Eigenvalue exponents of one holonomy, reduced to the minimal root order.

    The holonomy x_j satisfies x_j^{a_j} = h^{-b_j}, so its eigenvalues are
    zeta_{N a_j}^{t_s} with t_s = N s - b_j r_h for s = 0..a_j-1.  Returns
    (m, sorted allowed exponents, exponent of each s) with every t reduced
    by the common content so the eigenvalues are m-th roots of unity.
    """
    a, b = pair
    modulus = big_n * a
    t_list = [(big_n * s - b * r_h) % modulus for s in range(a)]
    content = math.gcd(modulus, *t_list)
    m = modulus // content
    exp_of_s = [t // content for t in t_list]
    return m, tuple(sorted(exp_of_s)), exp_of_s


def _profile(fiber: int, multiplicities: dict[int, int]) -> EigenvalueProfile:
    """The profile with each integral s repeated by its multiplicity, s ascending."""
    s_values = []
    for s in sorted(multiplicities):
        s_values.extend([Fraction(s)] * multiplicities[s])
    return EigenvalueProfile(fiber, tuple(s_values))


def _evaluate(d: SeifertData, rep: RepSpec) -> tuple[str, ModZ]:
    """The applicable e-formula: e itself for a trivial center ("e"), and
    2 Re(N e) for a scalar central action ("two_re_times_n_e")."""
    if rep.scalar_exponent is None:
        return "e", e_simple(d, rep)
    return "two_re_times_n_e", e_general(d, rep)


def icosahedral_example(k: int) -> IcosahedralResult:
    """The worked flat bundles on the Poincare sphere, from canned holonomy
    data: genus and fixed-point counts of the three exceptional holonomies,
    plus the central behavior.

    The traces 2 - F determine the eigenvalue multiplicities uniquely; the
    multiplicities convert to s-parameters (normalized into [0, a_j)), and
    the applicable e-formula is evaluated exactly.
    """
    if _integer(k) not in _EXAMPLES:
        raise DomainError("worked examples are numbered 1, 2, 3")
    ex = _EXAMPLES[k]
    d = POINCARE
    big_n = 2 * ex.genus
    r_h = ex.scalar_exponent or 0
    fp = FixedPointData(ex.genus, ex.fixed_points)
    profiles = []
    for j, ((a, b), f_count) in enumerate(zip(d.pairs, ex.fixed_points), start=1):
        m, allowed, exp_of_s = _fiber_eigenvalue_structure((a, b), big_n, r_h)
        mus = multiplicity_solve(m, big_n, lefschetz_trace(f_count), allowed)
        mu_by_exp = dict(zip(allowed, mus))
        profiles.append(_profile(j, {s: mu_by_exp[exp_of_s[s]] for s in range(a)}))
    rep = RepSpec(big_n, ex.scalar_exponent, tuple(profiles))
    kind, value = _evaluate(d, rep)
    if kind == "e":
        return IcosahedralResult(k, d, fp, rep, kind, value, order_in_pi3(value), None)
    return IcosahedralResult(k, d, fp, rep, kind, value, None, ex.order_constraint)


def regular_increment() -> ModZ:
    """e of the 120-dimensional doubled pullback regular bundle: -1/3.

    The eigenvalue profiles come from restricting that representation to
    the three cyclic subgroups, 120/m copies of each regular character.
    """
    from . import icosa_group
    profiles = []
    for j, (a, _) in enumerate(POINCARE.pairs, start=1):
        rp = icosa_group.regular_restriction_profile(a)
        profiles.append(_profile(j, rp.exponent_multiplicities))
    rep = RepSpec(len(icosa_group.enumerate_group()), None, tuple(profiles))
    return e_simple(POINCARE, rep)


def stabilization(n: int) -> tuple[ModZ, ModZ, ModZ]:
    """(e(example 3), the regular increment, stabilized_e(n)), each built once."""
    _integer(n, 0, "stabilization count must be nonnegative")
    base, increment = icosahedral_example(3).value, regular_increment()
    return base, increment, base + n * increment


def stabilized_e(n: int) -> ModZ:
    """e-invariant after n stabilizations by the 120-dimensional regular
    bundle: e(example 3) + n * (-1/3)."""
    return stabilization(n)[2]


def order_in_pi3(value: ModZ) -> int:
    """Order of the class in pi_3^s = Z/24, the residue's denominator.
    Raises TorsionBoundError when that denominator exceeds 24."""
    if value.order() > 24:
        raise TorsionBoundError(f"{value} is not annihilated by any integer up to 24")
    return value.order()


def _field(doc, key: str, kind: type, error=DomainError, where: str = ""):
    """doc[key], checked first: doc is a JSON object with key of kind; else error."""
    name = f"{where}.{key}" if where else key
    if not isinstance(doc, dict):
        raise error(f"{where or 'document'}: {type(doc).__name__}, not a JSON object")
    if key not in doc:
        raise error(f"{name}: missing")
    if kind is int:
        return _integer(doc[key], error=error, field=f"{name}: ")
    if not isinstance(doc[key], kind):
        raise error(f"{name}: expected a JSON list, got {doc[key]!r}")
    return doc[key]


# Fraction() alone would also take decimals and exponents such as "1e3000000",
# whose exact value can take minutes to build.
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _parse_rational(value, field: str) -> Fraction:
    """An s-value: a JSON integer, or a string p or p/q of digits, q nonzero."""
    if not isinstance(value, str):
        return Fraction(_integer(value, field=field))
    if not _RATIONAL.fullmatch(value):
        raise DomainError(f"{field}bad rational {value!r}, not p or p/q, q nonzero")
    limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
    if limit and max(map(len, value.lstrip("-").split("/"))) > limit:
        raise DomainError(f"{field}p or q past the {limit}-digit int/str limit")
    return Fraction(value)


def seifert_data_from_document(doc: dict) -> SeifertData:
    error, pairs = InvalidSeifertDataError, []
    for pair in _field(doc, "pairs", list, error):
        if not isinstance(pair, list) or len(pair) != 2:
            raise error(f"pairs: {pair!r} is not [a, b]")
        pairs.append(tuple(_integer(v, error=error, field="pairs: ") for v in pair))
    return SeifertData(tuple(pairs))


def seifert_check_document(doc: dict) -> dict:
    d = seifert_data_from_document(doc)
    return {
        "pairs": [[a, b] for a, b in d.pairs],
        "obstruction": str(homology_sphere_obstruction(d)),
        "is_integral_homology_sphere": is_integral_homology_sphere(d),
    }


def repspec_from_document(doc: dict) -> tuple[SeifertData, RepSpec]:
    """Parse a flat-bundle document.

    Expected fields: pairs, N, center ("trivial" or {"scalar_exponent": r}),
    and one profile per fiber, each {"fiber": j, "s_values": [rationals]} or
    {"fiber": j, "exponents": [integers]}.  N is a positive JSON integer.  A
    rational is a JSON integer or a string p or p/q of decimal digits, p
    optionally signed.  An exponent t of fiber j, read as a residue mod N a_j,
    gives s = (t mod N a_j + b_j r_h) / N, with r_h = 0 for a trivial center;
    s may be non-integral, an eigenvalue outside the integral-lift convention.
    """
    d = seifert_data_from_document(doc)
    big_n = _integer(_field(doc, "N", int), 1, "N: must be positive, got {}")
    center = _field(doc, "center", object)
    raw_profiles = _field(doc, "profiles", list)
    if center == "trivial":
        scalar_exponent = None
    elif isinstance(center, dict) and "scalar_exponent" in center:
        scalar_exponent = _field(center, "scalar_exponent", int, where="center")
    else:
        raise CentralBehaviorError(f"center: unsupported description {center!r}")
    fibers = [_field(raw, "fiber", int, where=f"profiles[{i}]")
              for i, raw in enumerate(raw_profiles)]
    if sorted(fibers) != list(range(1, len(d.pairs) + 1)):
        raise DomainError(f"profiles: fibers {fibers}, not 1..{len(d.pairs)} once each")
    r_h, profiles = scalar_exponent or 0, []
    for i, (j, raw) in enumerate(zip(fibers, raw_profiles)):
        key = "s_values" if "s_values" in raw else "exponents"
        values = _field(raw, key, list, where=f"profiles[{i}]")
        name = f"profiles[{i}].{key}: "
        if key == "s_values":
            s_values = [_parse_rational(v, name) for v in values]
        else:
            a, b = d.pairs[j - 1]
            s_values = [Fraction(_integer(t, field=name) % (big_n * a) + b * r_h, big_n)
                        for t in values]
        profiles.append(EigenvalueProfile(j, tuple(s_values)))
    return d, RepSpec(big_n, scalar_exponent, tuple(sorted(profiles)))


def _rep_fields(rep: RepSpec) -> tuple[str | dict, list[dict]]:
    """The "center" and "profiles" fields of both flat-bundle documents."""
    center = (
        "trivial"
        if rep.scalar_exponent is None
        else {"scalar_exponent": rep.scalar_exponent}
    )
    profiles = [
        {"fiber": p.fiber, "s_values": [str(s) for s in p.s_values]}
        for p in rep.profiles
    ]
    return center, profiles


def example_document(result: IcosahedralResult) -> dict:
    """A worked example as a JSON document: its holonomy data, the profiles
    as s-values, the value, and its order or the candidate orders."""
    center, profiles = _rep_fields(result.rep)
    return {
        "example": result.example,
        "pairs": [[a, b] for a, b in result.data.pairs],
        "genus": result.fixed_points.genus,
        "N": result.rep.dimension,
        "center": center,
        "fixed_points": list(result.fixed_points.counts),
        "traces": list(result.fixed_points.traces()),
        "profiles": profiles,
        "kind": result.kind,
        "value": result.value.to_doc(),
        "order": result.order,
        "order_constraint": None
        if result.order_constraint is None
        else list(result.order_constraint),
    }


def einvariant_document(doc: dict) -> dict:
    """Evaluate the applicable e-formula on a flat-bundle document.

    The output mirrors the parsed input (profiles re-rendered as s-values)
    plus the computed value and, when it is 24-torsion, its order.
    """
    d, rep = repspec_from_document(doc)
    kind, value = _evaluate(d, rep)
    try:
        order = order_in_pi3(value)
    except TorsionBoundError:
        order = None
    center, profiles = _rep_fields(rep)
    return {
        "pairs": [[a, b] for a, b in d.pairs],
        "N": rep.dimension,
        "center": center,
        "profiles": profiles,
        "kind": kind,
        "e_invariant": value.to_doc(),
        "order": order,
    }
