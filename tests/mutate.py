"""Mutation sweep: does the test suite notice a wrong product?

Each operator mutant changes one AST site of one module under
src/spincalc: a comparison, + and -, * and //, a bit operator, a shift, or an
int constant plus 1.  Annotations are skipped, since `from __future__ import
annotations` never evaluates them.  Each statement mutant then replaces one
statement of a function, if, loop, with or try body by `pass`; docstrings
and existing `pass` statements are left alone.  Statement mutants always
run after the operator mutants.  The mutated module is written into a copy
of the repository, and the named test files run there with -x; a mutant is
killed when they fail or time out, and survives when they pass.

Run from the repository root, for example:

    python tests/mutate.py src/spincalc/char_classes.py \\
        tests/test_char_classes.py tests/test_acceptance.py --workdir /tmp/mut

--workdir names a directory that does not exist yet.  It prints one line
per mutant (a statement mutant shows the first line of the deleted
statement) and a summary.  The file is not named test_*, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def _annotation_nodes(tree: ast.AST) -> set[int]:
    skip = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if note is not None:
                skip.update(id(n) for n in ast.walk(note))
    return skip


_BLOCKS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.If, ast.For, ast.AsyncFor, ast.While,
    ast.With, ast.AsyncWith, ast.Try, ast.ExceptHandler,
)


def _is_docstring(block: ast.AST, field: str, i: int, stmt: ast.stmt) -> bool:
    return (
        isinstance(block, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (field, i) == ("body", 0)
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def sites(tree: ast.AST):
    """(node, field, index, new value, line, label) for every mutable site:
    the operator sites in walk order, then the statement sites in walk order."""
    skip = _annotation_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    new = _SWAPS[type(op)]
                    label = f"{type(op).__name__} -> {new.__name__}"
                    yield node, "ops", i, new(), node.lineno, label
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            new = _SWAPS[type(node.op)]
            label = f"{type(node.op).__name__} -> {new.__name__}"
            yield node, "op", None, new(), node.lineno, label
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            new = node.value + 1
            yield node, "value", None, new, node.lineno, f"{node.value} -> {new}"
    for node in ast.walk(tree):
        if not isinstance(node, _BLOCKS):
            continue
        for field in ("body", "orelse", "finalbody"):
            for i, stmt in enumerate(getattr(node, field, ())):
                if isinstance(stmt, ast.Pass) or _is_docstring(node, field, i, stmt):
                    continue
                first = ast.unparse(stmt).splitlines()[0]
                yield node, field, i, ast.Pass(), stmt.lineno, f"delete: {first}"


def mutant_source(source: str, k: int) -> tuple[int, str, str]:
    """The line, label and source of mutant k."""
    tree = ast.parse(source)
    for j, (node, field, index, new, line, label) in enumerate(sites(tree)):
        if j == k:
            if index is None:
                setattr(node, field, new)
            else:
                getattr(node, field)[index] = new
            return line, label, ast.unparse(tree)
    raise IndexError(k)


def run_tests(workdir: Path, tests: list[str], timeout: float) -> str:
    # no bytecode, so a mutant of the same size and mtime never reuses a stale .pyc
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(workdir / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/spincalc/seifert.py")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    parser.add_argument(
        "--workdir", required=True, help="new directory for the repository copy; must not exist"
    )
    parser.add_argument(
        "--timeout", type=float, default=40.0, help="seconds before a run counts as a kill"
    )
    args = parser.parse_args()

    root = Path.cwd()
    workdir = Path(args.workdir)
    skip = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_out")
    shutil.copytree(root, workdir, ignore=skip)
    source = (root / args.module).read_text(encoding="utf-8")
    target = workdir / args.module

    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if run_tests(workdir, args.tests, args.timeout) != "survived":
        print("the unmutated module fails its tests; nothing to sweep", file=sys.stderr)
        return 1
    counts: dict[str, int] = {}
    k = 0
    while True:
        try:
            line, label, mutated = mutant_source(source, k)
        except IndexError:
            break
        target.write_text(mutated, encoding="utf-8")
        result = run_tests(workdir, args.tests, args.timeout)
        counts[result] = counts.get(result, 0) + 1
        print(f"{k:4d}  line {line:4d}  {label:22s} {result}", flush=True)
        k += 1
    target.write_text(source, encoding="utf-8")
    print(f"{k} mutants: " + ", ".join(f"{n} {r}" for r, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
