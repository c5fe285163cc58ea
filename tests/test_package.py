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
    assert names == sorted(set(names)) and len(names) == 64
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


def test_readme_library_examples():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```python\n(.*?)```", text, re.S))
    test = doctest.DocTestParser().get_doctest(blocks, {}, "README", str(readme), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
