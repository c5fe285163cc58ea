"""The contract of the public result records: construction by position and
by keyword, the repr, immutability and hashing.

The records are named tuples, so they also iterate, index and compare like
the tuple of their fields.
"""

import json
from fractions import Fraction

import pytest

from spincalc.char_classes import RiemannRochDim
from spincalc.exact_arith import DivisibilityBound, ModZ
from spincalc.f2_forms import ArfValue, QuadraticForm
from spincalc.icosa_group import PresentationTriple, RestrictionProfile
from spincalc.seifert import (
    POINCARE,
    EigenvalueProfile,
    FixedPointData,
    IcosahedralResult,
    Presentation,
    RepSpec,
    SeifertData,
)

_PROFILE = EigenvalueProfile(1, (Fraction(0), Fraction(1, 2)))
_REP = RepSpec(2, None, (_PROFILE,) * 3)

# (type, fields by name in order, repr)
_RECORDS = [
    (
        ArfValue,
        {"additive": 1, "multiplicative": -1},
        "ArfValue(additive=1, multiplicative=-1)",
    ),
    (
        QuadraticForm,
        {"g": 2, "basis_values": 3, "gram": (12, 8, 1, 3)},
        "QuadraticForm(g=2, basis_values=3, gram=(12, 8, 1, 3))",
    ),
    (
        QuadraticForm,
        {"g": 2, "basis_values": 3, "gram": None},
        "QuadraticForm(g=2, basis_values=3, gram=None)",
    ),
    (
        DivisibilityBound,
        {
            "index": 1,
            "oriented_divisor": 12,
            "spin_divisor": 48,
            "spin_maximality": "lower_bound_only",
        },
        "DivisibilityBound(index=1, oriented_divisor=12, spin_divisor=48, "
        "spin_maximality='lower_bound_only')",
    ),
    (ModZ, {"residue": Fraction(11, 12)}, "ModZ(residue=Fraction(11, 12))"),
    (
        RiemannRochDim,
        {"genus": 3, "power": 1, "dimension": 3},
        "RiemannRochDim(genus=3, power=1, dimension=3)",
    ),
    (
        SeifertData,
        {"pairs": ((2, -1), (3, 1), (5, 1))},
        "SeifertData(pairs=((2, -1), (3, 1), (5, 1)))",
    ),
    (
        Presentation,
        {"generators": ("h", "x1"), "relations": ("[h,x1] = 1", "x1 = 1")},
        "Presentation(generators=('h', 'x1'), relations=('[h,x1] = 1', 'x1 = 1'))",
    ),
    (
        FixedPointData,
        {"genus": 5, "counts": (2, 4, 2)},
        "FixedPointData(genus=5, counts=(2, 4, 2))",
    ),
    (
        EigenvalueProfile,
        {"fiber": 1, "s_values": (Fraction(0), Fraction(1, 2))},
        "EigenvalueProfile(fiber=1, s_values=(Fraction(0, 1), Fraction(1, 2)))",
    ),
    (
        RepSpec,
        {"dimension": 2, "scalar_exponent": 14, "profiles": (_PROFILE,)},
        "RepSpec(dimension=2, scalar_exponent=14, profiles=(EigenvalueProfile("
        "fiber=1, s_values=(Fraction(0, 1), Fraction(1, 2))),))",
    ),
    (
        IcosahedralResult,
        {
            "example": 3,
            "data": POINCARE,
            "fixed_points": FixedPointData(5, (2, 4, 2)),
            "rep": _REP,
            "kind": "e",
            "value": ModZ(Fraction(11, 12)),
            "order": 12,
            "order_constraint": None,
        },
        "IcosahedralResult(example=3, data=SeifertData(pairs=((2, -1), (3, 1), "
        "(5, 1))), fixed_points=FixedPointData(genus=5, counts=(2, 4, 2)), "
        "rep=RepSpec(dimension=2, scalar_exponent=None, profiles=("
        + ", ".join(
            ["EigenvalueProfile(fiber=1, s_values=(Fraction(0, 1), Fraction(1, 2)))"]
            * 3
        )
        + ")), kind='e', value=ModZ(residue=Fraction(11, 12)), order=12, "
        "order_constraint=None)",
    ),
    (
        PresentationTriple,
        {"h": (4, 0, 0, 4), "x1": (0, 1, 4, 0), "x2": (0, 1, 4, 1), "x3": (4, 4, 0, 4)},
        "PresentationTriple(h=(4, 0, 0, 4), x1=(0, 1, 4, 0), x2=(0, 1, 4, 1), "
        "x3=(4, 4, 0, 4))",
    ),
    (
        RestrictionProfile,
        {"order": 2, "copies": 60, "exponent_multiplicities": {0: 60, 1: 60}},
        "RestrictionProfile(order=2, copies=60, "
        "exponent_multiplicities={0: 60, 1: 60})",
    ),
]


_IDS = [f"{t.__name__}-{i}" for i, (t, _, _) in enumerate(_RECORDS)]


@pytest.mark.parametrize("record_type, fields, text", _RECORDS, ids=_IDS)
def test_record_contract(record_type, fields, text):
    positional = record_type(*fields.values())
    by_keyword = record_type(**fields)
    assert positional == by_keyword
    assert repr(positional) == repr(by_keyword) == text
    for name, value in fields.items():
        assert getattr(positional, name) == value
        with pytest.raises(AttributeError):
            setattr(positional, name, value)
    if record_type is RestrictionProfile:
        # a dict field leaves the record unhashable
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(by_keyword)


def test_quadratic_form_gram_defaults_to_none():
    assert QuadraticForm(g=2, basis_values=3).gram is None
    assert QuadraticForm(2, 3) == QuadraticForm(2, 3, None)


@pytest.mark.parametrize(
    "record_type, fields", [(t, f) for t, f, _ in _RECORDS], ids=_IDS
)
def test_records_are_tuples_of_their_fields(record_type, fields):
    record = record_type(**fields)
    values = tuple(fields.values())
    assert record == values
    assert tuple(record) == values
    assert [record[i] for i in range(len(values))] == list(values)


def test_json_renders_records_as_lists():
    bound = DivisibilityBound(1, 12, 48, "lower_bound_only")
    assert json.dumps(bound) == '[1, 12, 48, "lower_bound_only"]'
