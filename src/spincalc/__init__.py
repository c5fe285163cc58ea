"""Exact invariants of surface bundles and Seifert fibered homology spheres.

The package computes Arf invariants of quadratic forms over F2, Bernoulli
denominators and divisibility bounds for kappa classes, closed-form
characteristic classes of low-genus universal families, and e-invariants of
flat bundles over Seifert fibered integral homology spheres, all in exact
arithmetic.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the layer that defines it.  A layer is imported the
# first time one of its names is looked up on the package.
_HOME = {
    "CentralBehaviorError": "errors",
    "DegeneratePairingError": "errors",
    "DimensionMismatchError": "errors",
    "DomainError": "errors",
    "EnumerationCapError": "errors",
    "InvalidFormError": "errors",
    "InvalidSeifertDataError": "errors",
    "MultiplicityError": "errors",
    "SpincalcError": "errors",
    "TorsionBoundError": "errors",
    "WitnessSearchError": "errors",
    "DivisibilityBound": "exact_arith",
    "ModZ": "exact_arith",
    "bernoulli_paper": "exact_arith",
    "bernoulli_quotient": "exact_arith",
    "divisor_oriented": "exact_arith",
    "divisor_spin": "exact_arith",
    "todd_coefficients": "exact_arith",
    "von_staudt_den": "exact_arith",
    "von_staudt_factorization": "exact_arith",
    "ArfValue": "f2_forms",
    "QuadraticForm": "f2_forms",
    "arf_basis": "f2_forms",
    "arf_gauss": "f2_forms",
    "count_by_arf": "f2_forms",
    "count_zeros": "f2_forms",
    "direct_sum": "f2_forms",
    "enumerate_forms": "f2_forms",
    "eval_form": "f2_forms",
    "forms_isomorphic": "f2_forms",
    "normalize": "f2_forms",
    "random_symplectic": "f2_forms",
    "RiemannRochDim": "char_classes",
    "cokernel_dim": "char_classes",
    "hp_infinity_kappa": "char_classes",
    "lambda_kappa_difference": "char_classes",
    "proj_bundle_kappa": "char_classes",
    "riemann_roch_dim": "char_classes",
    "serre_duality_check": "char_classes",
    "sphere_kappa": "char_classes",
    "sphere_lambda": "char_classes",
    "torus_kappa": "char_classes",
    "torus_lambda": "char_classes",
    "IntPolynomial": "polynomials",
    "QuotientedPolynomial": "polynomials",
    "EigenvalueProfile": "seifert",
    "FixedPointData": "seifert",
    "IcosahedralResult": "seifert",
    "RepSpec": "seifert",
    "SeifertData": "seifert",
    "e_general": "seifert",
    "e_simple": "seifert",
    "einvariant_document": "seifert",
    "icosahedral_example": "seifert",
    "is_integral_homology_sphere": "seifert",
    "multiplicity_solve": "seifert",
    "order_in_pi3": "seifert",
    "regular_increment": "seifert",
    "seifert_check_document": "seifert",
    "stabilized_e": "seifert",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
