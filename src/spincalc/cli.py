"""Command line interface.

Every subcommand prints a human-readable line or two by default and a JSON
document with --json.  Each _cmd_* handler returns the pair (human, doc), and
`main` prints one of them: it is the only code that serialises a result.
Exit codes: 0 on success, 1 on a domain error (the message goes to stderr),
2 on usage errors (argparse's own convention).  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only the error classes are imported here: each _cmd_* imports the layers
# it uses, so a process loads no others.
from .errors import SpincalcError


def _format_modz(doc: dict, order: int | None = None) -> str:
    """A residue mod Z, from its to_doc() form, as it reads: the alias if there
    is one, else the residue, and then the order if it is known."""
    value = doc["alias"] or doc["residue"]
    text = value["num"] if value["den"] == "1" else f"{value['num']}/{value['den']}"
    if order is not None:
        text += f" (order {order})"
    return text


def _cmd_arf(args) -> tuple[str, dict]:
    from . import f2_forms

    q = f2_forms.form_from_bitstring(args.g, args.basis_values)
    arf = f2_forms.arf_basis(q)
    method = "basis"
    if q.g <= f2_forms.DEFAULT_GENUS_CAP:
        gauss = f2_forms.arf_gauss(q)
        if gauss != arf:
            raise SpincalcError("basis and Gauss-sum routes disagree")
        method = "basis+gauss"
    return (
        f"arf = {arf.additive} (multiplicative {arf.multiplicative:+d})",
        {
            "g": q.g,
            "basis_values": args.basis_values,
            "additive": arf.additive,
            "multiplicative": arf.multiplicative,
            "method": method,
        },
    )


def _cmd_forms(args) -> tuple[str, dict]:
    from . import f2_forms

    n_plus, n_minus = f2_forms.count_by_arf(args.g)
    doc = {
        "g": args.g,
        "total": n_plus + n_minus,
        "arf_plus": n_plus,
        "arf_minus": n_minus,
    }
    human = (
        f"genus {args.g}: {n_plus + n_minus} forms, "
        f"{n_plus} with arf +1, {n_minus} with arf -1"
    )
    if args.list:
        entries = []
        for q in f2_forms.enumerate_forms(args.g):
            bits = f2_forms.form_to_doc(q)["basis_values"]
            entries.append(
                {"basis_values": bits, "arf": f2_forms.arf_basis(q).additive}
            )
        doc["forms"] = entries
        human += "\n" + "\n".join(
            f"{e['basis_values']} arf {e['arf']}" for e in entries
        )
    return human, doc


def _cmd_zeros(args) -> tuple[str, dict]:
    from . import f2_forms

    q = f2_forms.form_from_bitstring(args.g, args.basis_values)
    z = f2_forms.count_zeros(q)
    return (
        f"{z} zeros among {1 << (2 * q.g)} vectors",
        {"g": q.g, "basis_values": args.basis_values, "zeros": z},
    )


def _cmd_bernoulli(args) -> tuple[str, dict]:
    from . import exact_arith

    b = exact_arith.bernoulli_paper(args.k)
    return f"B_{args.k} = {b}", {"k": args.k, "value": exact_arith.fraction_doc(b)}


def _cmd_vonstaudt(args) -> tuple[str, dict]:
    from . import exact_arith

    k = args.k
    factorization = exact_arith.von_staudt_factorization(k)
    den = exact_arith.von_staudt_den(k)
    exact = exact_arith.bernoulli_quotient(k).denominator
    if den != exact:
        raise SpincalcError(f"formula {den} disagrees with exact denominator {exact}")
    rendered = " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in factorization.items()
    )
    return (
        f"den(B_{k}/{2 * k}) = {den} = {rendered}",
        {
            "k": k,
            "denominator": str(den),
            "factorization": {str(p): e for p, e in factorization.items()},
            "exact_denominator": str(exact),
            "agrees": True,
        },
    )


def _cmd_divisibility(args) -> tuple[str, dict]:
    from . import exact_arith

    n = args.index
    if not args.spin:
        oriented = exact_arith.divisor_oriented(n)
        return (
            f"oriented divisor of kappa_{n}: {oriented}",
            {"index": n, "oriented_divisor": str(oriented)},
        )
    bound = exact_arith.divisor_spin(n)
    m = (n + 1) // 2
    if n % 2 == 0:
        formula = f"2^{2 * m + 1}"
        bern_index = None
    else:
        formula = f"2^{2 * m} * den(B_{m}/{2 * m})"
        bern_index = m
    marker = (
        "maximal" if bound.spin_maximality == "proven_maximal" else "lower bound only"
    )
    doc = {
        "index": n,
        "oriented_divisor": str(bound.oriented_divisor),
        "spin_divisor": str(bound.spin_divisor),
        "formula": formula,
        "bernoulli_index": bern_index,
        "maximality": bound.spin_maximality,
    }
    human = f"spin divisor of kappa_{n}: {formula} = {bound.spin_divisor} ({marker})"
    return human, doc


# For each class and family: the char_classes function computing it and the
# ring it lives in.
_CLASSES = {
    "kappa": {
        "sphere": ("sphere_kappa", "Z[p1]"),
        "proj": ("proj_bundle_kappa", "Z[c1,c2]"),
        "hp": ("hp_infinity_kappa", "Z[u]"),
        "torus": ("torus_kappa", "Z[u]"),
    },
    "lambda": {
        "sphere": ("sphere_lambda", "Z[c2,c3]/(2*c3)"),
        "torus": ("torus_lambda", "Z[u]"),
    },
}


def _cmd_class(args) -> tuple[str, dict]:
    from . import char_classes

    function, ring = _CLASSES[args.command][args.family]
    poly = getattr(char_classes, function)(args.n)
    return (
        f"{args.command}_{args.n} = {poly.render()}",
        {
            "family": args.family,
            "n": args.n,
            "ring": ring,
            "rendered": poly.render(),
            "terms": poly.json_terms(),
        },
    )


def _cmd_rr(args) -> tuple[str, dict]:
    from . import char_classes

    record = char_classes.riemann_roch_dim(args.genus, args.power)
    coker = char_classes.cokernel_dim(args.genus, args.power)
    index = record.dimension - coker
    return (
        f"dim ker = {record.dimension}, dim coker = {coker}, index = {index}",
        {
            "genus": args.genus,
            "power": args.power,
            "kernel_dim": record.dimension,
            "cokernel_dim": coker,
            "index": index,
            "index_identity_holds": char_classes.serre_duality_check(
                args.genus, args.power
            ),
        },
    )


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpincalcError(f"cannot read {path}: {exc}") from exc
    # Bad syntax, bytes that are not UTF-8, or nesting past the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise SpincalcError(f"{path} is not valid JSON: {exc}") from exc


def _cmd_seifert_check(args) -> tuple[str, dict]:
    from . import seifert

    doc = seifert.seifert_check_document(_load_document(args.input))
    verdict = "yes" if doc["is_integral_homology_sphere"] else "no"
    return (
        f"obstruction a*sum(b/a) = {doc['obstruction']}; "
        f"integral homology sphere: {verdict}",
        doc,
    )


def _cmd_einvariant(args) -> tuple[str, dict]:
    from . import seifert

    if args.example is not None:
        doc = seifert.example_document(seifert.icosahedral_example(args.example))
        if doc["kind"] == "e":
            return _format_modz(doc["value"], doc["order"]), doc
        constraint = ", ".join(str(c) for c in doc["order_constraint"])
        return (
            f"2*Re({doc['N']}*e) = {_format_modz(doc['value'])} "
            f"(mod Z); order in {{{constraint}}}",
            doc,
        )
    doc = seifert.einvariant_document(_load_document(args.input))
    label = "e" if doc["kind"] == "e" else f"2*Re({doc['N']}*e)"
    return f"{label} = {_format_modz(doc['e_invariant'], doc['order'])}", doc


def _cmd_stabilize(args) -> tuple[str, dict]:
    from . import seifert

    base, increment, value = seifert.stabilization(args.n)
    order = seifert.order_in_pi3(value)
    doc = {
        "n": args.n,
        "base": base.to_doc(),
        "increment": increment.to_doc(),
        "value": value.to_doc(),
        "order": order,
    }
    human = f"stabilized e after {args.n} step(s): {_format_modz(doc['value'], order)}"
    return human, doc


def _cmd_icosa(args) -> tuple[str, dict]:
    from . import icosa_group

    census = icosa_group.element_order_census()
    census_line = "order census: " + ", ".join(f"{o}:{c}" for o, c in census.items())
    census_doc = [[o, c] for o, c in census.items()]
    if args.census:
        return census_line, {"order": 120, "order_census": census_doc}
    group = icosa_group.enumerate_group()
    perfect = icosa_group.verify_perfect()
    center = icosa_group.center_elements()
    triple = icosa_group.find_presentation_triple()
    profiles = {
        m: icosa_group.regular_restriction_profile(m) for m in (2, 3, 5)
    }
    human = "\n".join(
        [
            f"group order: {len(group)}",
            f"perfect: {'yes' if perfect else 'no'}",
            f"center size: {len(center)}",
            census_line,
            f"presentation triple: x1={triple.x1}, x2={triple.x2}, x3={triple.x3}",
            "regular restrictions: "
            + ", ".join(f"order {m}: {p.copies} copies" for m, p in profiles.items()),
        ]
    )
    return (
        human,
        {
            "order": len(group),
            "perfect": perfect,
            "center_size": len(center),
            "order_census": census_doc,
            "presentation": {
                "h": list(triple.h),
                "x1": list(triple.x1),
                "x2": list(triple.x2),
                "x3": list(triple.x3),
            },
            "regular_restrictions": {
                str(m): {
                    "copies": p.copies,
                    "multiplicities": {str(j): c for j, c in
                                       sorted(p.exponent_multiplicities.items())},
                }
                for m, p in profiles.items()
            },
        },
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincalc",
        description="Exact invariants of surface bundles and Seifert spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)
        return p

    for name, func, help_text in (
        ("arf", _cmd_arf, "Arf invariant of a quadratic form over F2"),
        ("forms", _cmd_forms, "census of quadratic forms of a given genus"),
        ("zeros", _cmd_zeros, "zero count of a quadratic form"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--g", type=int, required=True)
        if name == "forms":
            p.add_argument("--list", action="store_true")
        else:
            p.add_argument("--basis-values", required=True)

    for name, func, help_text in (
        ("bernoulli", _cmd_bernoulli, "positive Bernoulli number B_k"),
        ("vonstaudt", _cmd_vonstaudt, "denominator of B_k/2k with factorization"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--k", type=int, required=True)

    p = add("divisibility", _cmd_divisibility, "divisibility bound for kappa_n")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--spin", action="store_true")

    for name, help_text in (
        ("kappa", "kappa class of a universal family"),
        ("lambda", "index-theoretic lambda class"),
    ):
        p = add(name, _cmd_class, help_text)
        p.add_argument("--family", choices=sorted(_CLASSES[name]), required=True)
        p.add_argument("--n", type=int, required=True)

    p = add("rr", _cmd_rr, "Riemann-Roch kernel dimension")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--power", type=int, required=True)

    p = add("seifert-check", _cmd_seifert_check, "integral homology sphere test")
    p.add_argument("--input", required=True, help="JSON document with pairs")

    p = add("einvariant", _cmd_einvariant, "e-invariant of a flat bundle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="JSON flat-bundle document")
    group.add_argument("--example", type=int, choices=(1, 2, 3))

    p = add("stabilize", _cmd_stabilize, "stabilized e-invariant")
    p.add_argument("--n", type=int, required=True)

    p = add("icosa", _cmd_icosa, "binary icosahedral group facts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--census", action="store_true")
    group.add_argument("--verify", action="store_true")

    return parser


def main(argv=None) -> int:
    # Numbers of any length are read and printed in full: lift the
    # 4,300-digit int/str cap that Python has had since 3.10.7 (older
    # releases have no cap and no setter) before the arguments are parsed.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        human, doc = args.func(args)
        print(json.dumps(doc, indent=2) if args.json else human)
        sys.stdout.flush()
    except SpincalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
