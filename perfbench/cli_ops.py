"""Ops of the cli_oneshot workload: one `spincalc` process per op.

Every README example runs in its human form, compared byte for byte with
the README line, and in its --json form, checked field by field against
perfbench.oracles.  Seeded Seifert and flat-bundle documents exercise the
two --input subcommands, and about one op in ten hands the CLI a malformed
document, which must end in exit 1 with a single `error:` line.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple
from fractions import Fraction

import library
import oracles

CliOp = namedtuple("CliOp", "kind argv check")

# (argv, README output line) for every example the README shows.
README = [
    (["arf", "--g", "1", "--basis-values", "11"], "arf = 1 (multiplicative -1)"),
    (["forms", "--g", "3"], "genus 3: 64 forms, 36 with arf +1, 28 with arf -1"),
    (["zeros", "--g", "2", "--basis-values", "0000"], "10 zeros among 16 vectors"),
    (["bernoulli", "--k", "6"], "B_6 = 691/2730"),
    (["vonstaudt", "--k", "6"], "den(B_6/12) = 32760 = 2^3 * 3^2 * 5 * 7 * 13"),
    (["divisibility", "--index", "3"], "oriented divisor of kappa_3: 120"),
    (["divisibility", "--index", "3", "--spin"],
     "spin divisor of kappa_3: 2^4 * den(B_2/4) = 1920 (lower bound only)"),
    (["kappa", "--family", "proj", "--n", "2"], "kappa_2 = 2*c1^2 - 8*c2"),
    (["lambda", "--family", "sphere", "--n", "6"], "lambda_6 = -2*c2^3 + c3^2"),
    (["rr", "--genus", "3", "--power", "1"], "dim ker = 3, dim coker = 1, index = 2"),
    (["einvariant", "--example", "3"], "-1/12 (order 12)"),
    (["einvariant", "--example", "1"], "2*Re(28*e) = 1/3 (mod Z); order in {6, 12, 24}"),
    (["stabilize", "--n", "1"], "stabilized e after 1 step(s): -5/12 (order 12)"),
    (["icosa", "--census"], "order census: 1:1, 2:1, 3:20, 4:30, 5:24, 6:20, 10:24"),
]

# Malformed documents that the CLI rejects with a clean error today.
MALFORMED = [
    ("seifert-check", "{\"pairs\": [[2, -1], [3, 1]"),
    ("seifert-check", {"pairz": [[2, -1]]}),
    ("seifert-check", {"pairs": [[2, -1], [4, 2]]}),
    ("seifert-check", {"pairs": [[0, 1]]}),
    ("seifert-check", [1, 2]),
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": "x", "center": "trivial", "profiles": []}),
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2, "center": "weird", "profiles": []}),
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2, "center": "trivial",
                    "profiles": [{"fiber": 1, "s_values": ["0", "1"]},
                                 {"fiber": 2, "s_values": ["0"]},
                                 {"fiber": 3, "s_values": ["0", "1"]}]}),
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2, "center": "trivial",
                    "profiles": [{"fiber": 1, "s_values": ["0", "1/0"]},
                                 {"fiber": 2, "s_values": ["0", "1"]},
                                 {"fiber": 3, "s_values": ["0", "1"]}]}),
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2, "center": "trivial",
                    "profiles": [{"fiber": 1, "s_values": ["0", "1"]},
                                 {"fiber": 1, "s_values": ["0", "1"]},
                                 {"fiber": 3, "s_values": ["0", "1"]}]}),
]

# Malformed documents that crash the CLI with a traceback today.  They are
# run once per run as a probe, outside the timed ops, and reported.
KNOWN_CRASHES = [
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2, "center": "trivial",
                    "profiles": [1, 2, 3]}),
    ("einvariant", {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2,
                    "center": {"scalar_exponent": "x"}, "profiles": []}),
]


def clean_error(out: str, err: str, rc: int) -> bool:
    lines = err.splitlines()
    return rc == 1 and out == "" and len(lines) == 1 and lines[0].startswith("error:")


def _human(expected: str):
    return lambda out, err, rc: rc == 0 and out == expected + "\n" and err == ""


def _json(check):
    def run(out, err, rc):
        return rc == 0 and err == "" and check(json.loads(out))

    return run


def _json_checks(table) -> dict:
    """Field checks for the --json form of each README example."""
    arf = oracles.arf(1, 0b11)
    plus, minus = oracles.census(3)
    spin, maximality = oracles.divisor_spin(3)

    def residue_is(value):
        return lambda d: oracles.residue_of(d) == value

    def icosa_example(k):
        known = {1: Fraction(1, 3), 3: Fraction(11, 12)}

        def run(d):
            pairs = [tuple(p) for p in d["pairs"]]
            profiles = [[Fraction(s) for s in p["s_values"]] for p in d["profiles"]]
            if d["kind"] == "e":
                value = oracles.e_direct(pairs, profiles)
            else:
                value = oracles.e_power_sums(pairs, d["N"], profiles)
            return value == known[k] == oracles.residue_of(d["value"]) and d["traces"] == [
                2 - f for f in d["fixed_points"]
            ]

        return run

    return {
        "arf": lambda d: d["additive"] == arf and d["multiplicative"] == (-1) ** arf
        and d["method"] == "basis+gauss",
        "forms": lambda d: (d["arf_plus"], d["arf_minus"], d["total"]) == (plus, minus, 64),
        "zeros": lambda d: d["zeros"] == oracles.zeros(2, oracles.arf(2, 0)),
        "bernoulli": lambda d: Fraction(int(d["value"]["num"]), int(d["value"]["den"])) == table[6],
        "vonstaudt": lambda d: int(d["denominator"]) == oracles.von_staudt_den(6)
        and {int(p): e for p, e in d["factorization"].items()} == oracles.von_staudt_factorization(6)
        and d["agrees"] is True,
        "divisibility": lambda d: int(d["oriented_divisor"]) == oracles.divisor_oriented(3)
        and ("spin_divisor" not in d or (int(d["spin_divisor"]), d["maximality"]) == (spin, maximality)),
        "kappa": lambda d: oracles.terms_of(d["terms"]) == oracles.proj_kappa(2),
        "lambda": lambda d: oracles.terms_of(d["terms"]) == oracles.sphere_lambda(6),
        "rr": lambda d: (d["kernel_dim"], d["cokernel_dim"], d["index"]) == (
            oracles.h0(3, 1), oracles.h0(3, 0), oracles.h0(3, 1) - oracles.h0(3, 0))
        and d["index_identity_holds"] is True,
        "einvariant3": lambda d: icosa_example(3)(d) and d["order"] == 12,
        "einvariant1": lambda d: icosa_example(1)(d) and d["order_constraint"] == [6, 12, 24],
        "stabilize": lambda d: residue_is(oracles.stabilized(1))(d["value"])
        and residue_is(Fraction(11, 12))(d["base"]) and residue_is(Fraction(2, 3))(d["increment"])
        and d["order"] == 12,
        "icosa": lambda d: {o: c for o, c in d["order_census"]} == oracles.ICOSA_CENSUS,
    }


def _icosa_verify_human(out, err, rc):
    lines = out.splitlines()
    if rc != 0 or err or len(lines) != 6:
        return False
    triple = lines[4].removeprefix("presentation triple: ")
    elems = {}
    for part in triple.split(", x")[0:3]:
        name, value = part.split("=")
        elems[name.lstrip("x")] = tuple(int(v) for v in value.strip("()").split(","))
    census = ", ".join(f"{o}:{c}" for o, c in oracles.ICOSA_CENSUS.items())
    return (
        lines[:4] == ["group order: 120", "perfect: yes", "center size: 2", f"order census: {census}"]
        and oracles.presentation_ok((4, 0, 0, 4), elems["1"], elems["2"], elems["3"])
        and lines[5] == "regular restrictions: order 2: 60 copies, order 3: 40 copies, order 5: 24 copies"
    )


def _icosa_verify_json(d):
    p = d["presentation"]
    return (
        (d["order"], d["perfect"], d["center_size"]) == (120, True, 2)
        and {o: c for o, c in d["order_census"]} == oracles.ICOSA_CENSUS
        and oracles.presentation_ok(*(tuple(p[k]) for k in ("h", "x1", "x2", "x3")))
        and {m: r["copies"] for m, r in d["regular_restrictions"].items()} == {"2": 60, "3": 40, "5": 24}
    )


def _seifert_human(pairs):
    obs = oracles.obstruction(pairs)
    verdict = "yes" if abs(obs) == 1 else "no"
    return f"obstruction a*sum(b/a) = {obs}; integral homology sphere: {verdict}"


def _einvariant_human(doc):
    pairs, n, r, profiles = oracles.bundle_from_doc(doc)
    value = oracles.e_direct(pairs, profiles) if r is None else oracles.e_power_sums(pairs, n, profiles)
    order = oracles.order24(value)
    text = str(oracles.legible(value)) + ("" if order is None else f" (order {order})")
    return f"e = {text}" if r is None else f"2*Re({n}*e) = {text}"


def write_doc(tmp: str, name: str, doc) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def cli_pass(rng: random.Random, tmp: str, index: int, table) -> list[CliOp]:
    """One pass: every README example, human and --json, icosa --verify,
    two seeded documents per --input subcommand, four malformed ones;
    shuffled with the seed."""
    checks = _json_checks(table)
    ops = []
    for argv, line in README:
        key = argv[0] + (argv[2] if argv[0] == "einvariant" else "")
        ops.append(CliOp(argv[0], argv, _human(line)))
        ops.append(CliOp(argv[0] + "_json", argv + ["--json"], _json(checks[key])))
    ops.append(CliOp("icosa_verify", ["icosa", "--verify"], _icosa_verify_human))
    ops.append(CliOp("icosa_verify_json", ["icosa", "--verify", "--json"], _json(_icosa_verify_json)))
    for i in range(2):
        pairs = library.seifert_pairs(rng)
        path = write_doc(tmp, f"p{index}_s{i}.json", {"pairs": [list(p) for p in pairs]})
        ops.append(CliOp("seifert_check", ["seifert-check", "--input", path], _human(_seifert_human(pairs))))
        ops.append(CliOp("seifert_check_json", ["seifert-check", "--input", path, "--json"],
                         _json(library.check_seifert(pairs))))
        doc = library.bundle_doc(rng, rng.choice((6, 12, 18)), scalar=i == 1)
        path = write_doc(tmp, f"p{index}_e{i}.json", doc)
        ops.append(CliOp("einvariant_input", ["einvariant", "--input", path], _human(_einvariant_human(doc))))
        ops.append(CliOp("einvariant_input_json", ["einvariant", "--input", path, "--json"],
                         _json(library.check_einvariant_doc(doc))))
    for i, (cmd, doc) in enumerate(rng.sample(MALFORMED, 4)):
        path = write_doc(tmp, f"p{index}_bad{i}.json", doc)
        ops.append(CliOp("malformed", [cmd, "--input", path], clean_error))
    rng.shuffle(ops)
    return ops
