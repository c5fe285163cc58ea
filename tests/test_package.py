"""Tests for the package namespace: names are re-exported lazily, a layer
is imported only when one of its names is first looked up, every
annotation resolves, and the README's library examples print what it shows.

Each import check runs in a fresh interpreter, so that no other test has
imported a layer before it.
"""

import ast
import doctest
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import typing
from functools import cached_property

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


def test_readme_library_examples():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```python\n(.*?)```", text, re.S))
    test = doctest.DocTestParser().get_doctest(blocks, {}, "README", str(readme), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
