"""Tests for the package namespace: names are re-exported lazily, a layer
is imported only when one of its names is first looked up, every
annotation resolves, every public name is reached by a user, every integer
argument refuses a bool and a float, and the README's library examples print
what it shows.

Each import check runs in a fresh interpreter, so that no other test has
imported a layer before it.
"""

import ast
import doctest
import functools
import importlib
import inspect
import itertools
import json
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
import typing
from functools import cached_property

import pytest

import spincalc


def run_fresh(code: str):
    """Run code in a new interpreter and return the JSON it prints."""
    src = os.path.dirname(os.path.dirname(spincalc.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_import_loads_no_layer():
    loaded = run_fresh(
        "import json, sys, spincalc\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('spincalc'))))"
    )
    assert loaded == ["spincalc"]


def test_first_lookup_loads_only_the_defining_layer():
    loaded = run_fresh(
        "import json, sys, spincalc\n"
        "spincalc.bernoulli_paper\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('spincalc'))))"
    )
    assert loaded == ["spincalc", "spincalc.errors", "spincalc.exact_arith"]


def test_every_public_name_resolves_to_its_definition():
    report = run_fresh(
        "import importlib, json, spincalc\n"
        "listed = dir(spincalc)\n"
        "star = {}\n"
        "exec('from spincalc import *', star)\n"
        "rows = []\n"
        "for name in spincalc.__all__:\n"
        "    value = getattr(spincalc, name)\n"
        "    home = value.__module__\n"
        "    rows.append([name, home,\n"
        "                 getattr(importlib.import_module(home), name) is value,\n"
        "                 vars(spincalc).get(name) is value,\n"
        "                 star.get(name) is value,\n"
        "                 name in listed])\n"
        "print(json.dumps({'all': spincalc.__all__, 'version': spincalc.__version__,\n"
        "                  'rows': rows}))"
    )
    names = report["all"]
    assert names == sorted(set(names)) and len(names) == 60
    assert report["version"] == "0.1.0"
    for name, home, defined, cached, starred, listed in report["rows"]:
        assert home.startswith("spincalc.") and home != "spincalc.cli", name
        assert defined and cached and starred and listed, name


def test_resolving_every_public_name_loads_no_dataclasses():
    loaded = run_fresh(
        "import json, sys, spincalc\n"
        "for name in spincalc.__all__:\n"
        "    getattr(spincalc, name)\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    assert loaded == []


def test_unknown_names_raise_attribute_error():
    report = run_fresh(
        "import json, spincalc\n"
        "try:\n"
        "    spincalc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert report == "module 'spincalc' has no attribute 'no_such_name'"


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each postponed annotation in its
    # module's namespace, so a name used only in an annotation must exist
    checked = 0
    for info in pkgutil.iter_modules(spincalc.__path__):
        module = importlib.import_module(f"spincalc.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = [value]
            if inspect.isclass(value):
                members = list(vars(value).values())
            for member in members:
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
                    checked += 1
    assert checked > 100


def test_every_top_level_definition_is_used_by_the_product():
    # Code that only the tests call belongs under tests/: a top-level def or
    # class must be referenced by another top-level statement of src/, be a
    # public name, be a CLI handler or be a dunder.
    package = os.path.dirname(spincalc.__file__)
    modules = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                modules[name[:-3]] = ast.parse(fh.read()).body
    referenced = [
        (stmt, {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))})
        for body in modules.values()
        for stmt in body
    ]
    unused = [
        f"{module}.{stmt.name}"
        for module, body in modules.items()
        for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in referenced if other is not stmt)
        and stmt.name not in spincalc._HOME
        and not stmt.name.startswith("_cmd_")
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    assert unused == []


def _names_reached(source: str) -> set[str]:
    """The names that Python source calls or imports, the names it calls
    through a string argument (perfbench's getattr(S, "name")), and every
    string of the form "layer.name" (perfbench's tracer hooks)."""
    reached = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            reached.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            reached.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
            for arg in node.args:
                for leaf in arg.elts if isinstance(arg, ast.Tuple) else [arg]:
                    if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                        reached.add(leaf.value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+\.\w+", node.value):
                reached.add(node.value)
    return reached


def test_every_public_function_is_reached_by_a_user():
    # A public function stays only if the README documents it (in backticks
    # or in its Python examples), the CLI or perfbench calls it, or an
    # acceptance test states a paper fact through it.  A bare word does not
    # count: the README's "presentation triple" names no function.
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    reached = set(re.findall(r"`(\w+)[`(]", readme))
    examples = re.findall(r"^>>> (.*)$", readme, re.M)
    reached |= _names_reached("\n".join(examples))
    sources = [root / "src" / "spincalc" / "cli.py", root / "tests" / "test_acceptance.py"]
    sources += sorted((root / "perfbench").rglob("*.py"))
    for path in sources:
        reached |= _names_reached(path.read_text(encoding="utf-8"))
    unreached = [
        name
        for name, layer in spincalc._HOME.items()
        if inspect.isfunction(getattr(spincalc, name))
        and name not in reached
        and f"{layer}.{name}" not in reached
    ]
    assert unreached == []


def _members_read(source: str) -> set[str]:
    """The attributes that Python source reads, each as "name" and, read off
    a bare name, as "Owner.name"; an imported module's attributes are left
    out, so perfbench's oracles.pair reads no method called pair."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.module
        for alias in node.names
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in modules:
            read.add(node.attr)
            if isinstance(node.value, ast.Name):
                read.add(f"{node.value.id}.{node.attr}")
    return read


def test_every_public_member_is_reached_by_a_user():
    # The same rule for the named methods, properties and classmethods of
    # each public class, where a use anywhere in src/ counts too.  A member
    # is reached by a read of an attribute of its name or by the README; an
    # override only where its own class is named, so IntPolynomial.zero
    # reaches no subclass's zero.  Operators are dunders, which no read names.
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    read = {
        word
        for owner, name in re.findall(r"`(\w+\.|\.)?(\w+)[`(]", readme)
        for word in (name, owner + name)
    }
    read |= _members_read("\n".join(re.findall(r"^>>> (.*)$", readme, re.M)))
    sources = sorted((root / "src" / "spincalc").glob("*.py"))
    sources += [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").rglob("*.py"))]
    for path in sources:
        read |= _members_read(path.read_text(encoding="utf-8"))
    kinds = (property, cached_property, classmethod, staticmethod)
    unreached = [
        f"{name}.{member}"
        for name in spincalc._HOME
        if inspect.isclass(cls := getattr(spincalc, name))
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, kinds))
        and f"{name}.{member}" not in read
        and (member not in read or any(member in vars(base) for base in cls.__mro__[1:]))
    ]
    assert unreached == []


def _integer_positions() -> dict:
    """Each public callable that takes an integer, with arguments it accepts
    and the positions that hold an integer.  A position is an argument index,
    or a path of indices into nested tuples: a Gram row, a Seifert pair's
    entry, an allowed exponent."""
    at_1, at_2, at_3_1 = ((1,), [0]), ((2,), [0]), ((3, 1), [0, 1])
    return {
        "ArfValue": ((0, 1), [0, 1]),
        "ArfValue.from_additive": at_1,
        "ArfValue.from_multiplicative": ((-1,), [0]),
        "DivisibilityBound": ((1, 12, 48, "lower_bound_only"), [0, 1, 2]),
        "ModZ": at_1,
        "QuadraticForm": ((1, 1, (2, 1)), [0, 1, (2, 0), (2, 1)]),
        "RepSpec": ((1, 0, ()), [0, 1]),
        "SeifertData": ((((2, -1), (3, 1)),), [(0, 0, 0), (0, 0, 1), (0, 1, 1)]),
        "bernoulli_paper": at_1,
        "bernoulli_quotient": at_1,
        "cokernel_dim": at_3_1,
        "count_by_arf": at_1,
        "divisor_oriented": at_1,
        "divisor_spin": at_1,
        "enumerate_forms": at_1,
        "eval_form": ((spincalc.QuadraticForm(1, 0), 1), [1]),
        "hp_infinity_kappa": at_2,
        "icosahedral_example": ((3,), [0]),
        "lambda_kappa_difference": at_2,
        "multiplicity_solve": ((4, 28, 0, (1, 3)), [0, 1, 2, (3, 0)]),
        "proj_bundle_kappa": at_2,
        "random_symplectic": ((1, random.Random(0)), [0]),
        "riemann_roch_dim": at_3_1,
        "serre_duality_check": at_3_1,
        "sphere_kappa": at_2,
        "sphere_lambda": at_2,
        "stabilized_e": at_1,
        "todd_coefficients": at_1,
        "torus_kappa": at_2,
        "torus_lambda": at_2,
        "von_staudt_den": at_1,
        "von_staudt_factorization": at_1,
    }


# Public names that take no integer argument.  IntPolynomial's integers sit in
# its term dict, which tests/test_polynomial_contract.py checks term by term.
_NO_INTEGER = {
    "CentralBehaviorError", "DegeneratePairingError", "DimensionMismatchError",
    "DomainError", "EnumerationCapError", "InvalidFormError",
    "InvalidSeifertDataError", "MultiplicityError", "SpincalcError",
    "TorsionBoundError", "WitnessSearchError", "IntPolynomial",
    "QuotientedPolynomial", "arf_basis", "arf_gauss", "count_zeros", "direct_sum",
    "e_general", "e_simple", "einvariant_document", "forms_isomorphic",
    "is_integral_homology_sphere", "normalize", "order_in_pi3",
    "regular_increment", "seifert_check_document",
}
# Records that keep what they are given and check nothing (README "Library").
_UNCHECKED_RECORDS = {
    "EigenvalueProfile", "FixedPointData", "IcosahedralResult", "RiemannRochDim",
}


def _put(args: tuple, path, value) -> tuple:
    """args with value at path, an index or a tuple of indices into nested tuples."""
    head, *rest = path if isinstance(path, tuple) else (path,)
    item = _put(args[head], tuple(rest), value) if rest else value
    return args[:head] + (item,) + args[head + 1 :]


def test_every_integer_argument_refuses_a_bool_and_a_float():
    # The integer rule of errors._integer, at every public entry point.  A
    # new public name must take a place in the table or in one of the lists.
    table = _integer_positions()
    listed = {name.partition(".")[0] for name in table}
    assert sorted(set(spincalc._HOME) - listed - _NO_INTEGER - _UNCHECKED_RECORDS) == []
    wrong = []
    for name, (args, positions) in table.items():
        call = functools.reduce(getattr, name.split("."), spincalc)
        call(*args)
        for path, bad in itertools.product(positions, (True, 2.0)):
            try:
                call(*_put(args, path, bad))
            except TypeError:
                continue
            except spincalc.SpincalcError as exc:  # refused, but not as a type
                wrong.append(f"{name} at {path} with {bad!r}: {type(exc).__name__}")
            else:
                wrong.append(f"{name} at {path} with {bad!r}: accepted")
    assert not wrong, "\n".join(wrong)
    # the operators leave a bool to the other operand, which refuses it
    x = spincalc.IntPolynomial.generator(("x",), "x")
    third = spincalc.ModZ("1/3")
    for bad in (True, 2.0):
        for operation in (
            lambda: third * bad, lambda: bad * third, lambda: x + bad,
            lambda: bad + x, lambda: x - bad, lambda: bad - x, lambda: x * bad,
            lambda: bad * x, lambda: x**bad,
        ):
            with pytest.raises(TypeError):
                operation()
    assert spincalc.IntPolynomial.constant(("x",), 1).__eq__(True) is NotImplemented


def test_readme_library_examples():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```python\n(.*?)```", text, re.S))
    test = doctest.DocTestParser().get_doctest(blocks, {}, "README", str(readme), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
