"""Tests for the command line interface."""

import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spincalc
from spincalc.cli import _CLASSES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_arf_human(capsys):
    code, out, err = run_cli(capsys, "arf", "--g", "1", "--basis-values", "11")
    assert code == 0
    assert out == "arf = 1 (multiplicative -1)\n"


def test_arf_json(capsys):
    doc = run_json(capsys, "arf", "--g", "1", "--basis-values", "11")
    assert doc == {
        "g": 1,
        "basis_values": "11",
        "additive": 1,
        "multiplicative": -1,
        "method": "basis+gauss",
    }
    # the Gauss-sum cross-check runs up to the enumeration cap, and not past it
    for g, method in ((8, "basis+gauss"), (9, "basis")):
        bits = "0" * (2 * g - 2) + "11"
        doc = run_json(capsys, "arf", "--g", str(g), "--basis-values", bits)
        assert (doc["additive"], doc["method"]) == (0, method)


def test_forms(capsys):
    code, out, _ = run_cli(capsys, "forms", "--g", "2")
    assert code == 0
    assert "16 forms, 10 with arf +1, 6 with arf -1" in out
    code, out, _ = run_cli(capsys, "forms", "--g", "1", "--list")
    assert (code, out) == (
        0, "genus 1: 4 forms, 3 with arf +1, 1 with arf -1\n"
        "00 arf 0\n10 arf 0\n01 arf 0\n11 arf 1\n",
    )
    doc = run_json(capsys, "forms", "--g", "1", "--list")
    assert doc["total"] == 4
    assert doc["forms"] == [
        {"basis_values": "00", "arf": 0},
        {"basis_values": "10", "arf": 0},
        {"basis_values": "01", "arf": 0},
        {"basis_values": "11", "arf": 1},
    ]


def test_zeros(capsys):
    doc = run_json(capsys, "zeros", "--g", "1", "--basis-values", "00")
    assert doc["zeros"] == 3


def test_counts_answer_past_the_enumeration_cap(capsys):
    code, out, _ = run_cli(capsys, "forms", "--g", "9")
    assert code == 0
    assert out == "genus 9: 262144 forms, 131328 with arf +1, 130816 with arf -1\n"
    code, out, _ = run_cli(capsys, "zeros", "--g", "9", "--basis-values", "0" * 18)
    assert (code, out) == (0, "131328 zeros among 262144 vectors\n")
    doc = run_json(capsys, "forms", "--g", "64")
    assert doc["total"] == 1 << 128
    assert doc["arf_plus"] == 2**63 * (2**64 + 1)
    assert doc["arf_minus"] == 2**63 * (2**64 - 1)
    # the list is the answer, so it keeps the cap
    code, out, err = run_cli(capsys, "forms", "--g", "9", "--list")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: EnumerationCapError")


def test_bernoulli(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--k", "6")
    assert code == 0
    assert out == "B_6 = 691/2730\n"
    doc = run_json(capsys, "bernoulli", "--k", "2")
    assert doc == {"k": 2, "value": {"num": "1", "den": "30"}}


def test_vonstaudt(capsys):
    code, out, _ = run_cli(capsys, "vonstaudt", "--k", "2")
    assert code == 0
    assert out == "den(B_2/4) = 120 = 2^3 * 3 * 5\n"
    doc = run_json(capsys, "vonstaudt", "--k", "2")
    assert doc["denominator"] == "120"
    assert doc["factorization"] == {"2": 3, "3": 1, "5": 1}
    assert doc["agrees"] is True


def test_divisibility(capsys):
    code, out, _ = run_cli(capsys, "divisibility", "--index", "3")
    assert code == 0
    assert out == "oriented divisor of kappa_3: 120\n"
    doc = run_json(capsys, "divisibility", "--index", "3", "--spin")
    assert doc["spin_divisor"] == "1920"
    assert doc["formula"] == "2^4 * den(B_2/4)"
    assert doc["bernoulli_index"] == 2
    assert doc["maximality"] == "lower_bound_only"
    doc = run_json(capsys, "divisibility", "--index", "4", "--spin")
    assert doc["spin_divisor"] == "32"
    assert doc["formula"] == "2^5"
    assert doc["maximality"] == "proven_maximal"
    assert doc["bernoulli_index"] is None


def test_kappa(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--family", "proj", "--n", "2")
    assert code == 0
    assert out == "kappa_2 = 2*c1^2 - 8*c2\n"
    doc = run_json(capsys, "kappa", "--family", "proj", "--n", "2")
    assert doc["ring"] == "Z[c1,c2]"
    assert doc["terms"] == [
        {"coeff": "2", "exponents": {"c1": 2}},
        {"coeff": "-8", "exponents": {"c2": 1}},
    ]
    doc = run_json(capsys, "kappa", "--family", "torus", "--n", "5")
    assert doc["rendered"] == "0"


def test_lambda(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--family", "sphere", "--n", "6")
    assert code == 0
    assert out == "lambda_6 = -2*c2^3 + c3^2\n"
    doc = run_json(capsys, "lambda", "--family", "sphere", "--n", "3")
    assert doc["ring"] == "Z[c2,c3]/(2*c3)"
    assert doc["rendered"] == "c3"
    doc = run_json(capsys, "lambda", "--family", "torus", "--n", "3")
    assert doc["rendered"] == "7*u^3"


def test_rr(capsys):
    doc = run_json(capsys, "rr", "--genus", "3", "--power", "1")
    assert doc == {
        "genus": 3,
        "power": 1,
        "kernel_dim": 3,
        "cokernel_dim": 1,
        "index": 2,
        "index_identity_holds": True,
    }


def test_seifert_check(capsys, tmp_path):
    path = tmp_path / "poincare.json"
    path.write_text(json.dumps({"pairs": [[2, -1], [3, 1], [5, 1]]}))
    code, out, _ = run_cli(capsys, "seifert-check", "--input", str(path))
    assert code == 0
    assert "obstruction a*sum(b/a) = 1" in out
    assert "integral homology sphere: yes" in out
    doc = run_json(capsys, "seifert-check", "--input", str(path))
    assert doc["obstruction"] == "1"
    assert doc["is_integral_homology_sphere"] is True


def test_einvariant_example_three_exact_line(capsys):
    code, out, _ = run_cli(capsys, "einvariant", "--example", "3")
    assert code == 0
    assert out == "-1/12 (order 12)\n"


def test_einvariant_example_two(capsys):
    code, out, _ = run_cli(capsys, "einvariant", "--example", "2")
    assert code == 0
    assert out == "1/2 (order 2)\n"


def test_einvariant_example_one(capsys):
    code, out, _ = run_cli(capsys, "einvariant", "--example", "1")
    assert code == 0
    assert out == "2*Re(28*e) = 1/3 (mod Z); order in {6, 12, 24}\n"
    doc = run_json(capsys, "einvariant", "--example", "1")
    assert doc["kind"] == "two_re_times_n_e"
    assert doc["value"]["residue"] == {"num": "1", "den": "3"}
    assert doc["order_constraint"] == [6, 12, 24]
    assert doc["N"] == 28


def test_einvariant_from_document(capsys, tmp_path):
    doc = {
        "pairs": [[2, -1], [3, 1], [5, 1]],
        "N": 18,
        "center": "trivial",
        "profiles": [
            {"fiber": 1, "s_values": ["0"] * 8 + ["1"] * 10},
            {"fiber": 2, "s_values": ["0"] * 6 + ["1"] * 6 + ["2"] * 6},
            {
                "fiber": 3,
                "s_values": ["0"] * 2
                + ["1"] * 4
                + ["2"] * 4
                + ["3"] * 4
                + ["4"] * 4,
            },
        ],
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "einvariant", "--input", str(path))
    assert code == 0
    assert out == "e = 1/2 (order 2)\n"
    parsed = run_json(capsys, "einvariant", "--input", str(path))
    assert parsed["e_invariant"]["residue"] == {"num": "1", "den": "2"}
    assert parsed["order"] == 2


def test_stabilize(capsys):
    code, out, _ = run_cli(capsys, "stabilize", "--n", "1")
    assert code == 0
    assert out == "stabilized e after 1 step(s): -5/12 (order 12)\n"
    doc = run_json(capsys, "stabilize", "--n", "2")
    assert doc["value"]["residue"] == {"num": "1", "den": "4"}
    assert doc["increment"]["residue"] == {"num": "2", "den": "3"}
    assert doc["order"] == 4
    # a negative count is refused before anything is computed or printed
    for argv in (["--n", "-1"], ["--n", "-1", "--json"]):
        assert run_cli(capsys, "stabilize", *argv) == (
            1, "", "error: DomainError: stabilization count must be nonnegative\n"
        )


def test_icosa_census(capsys):
    code, out, _ = run_cli(capsys, "icosa", "--census")
    assert code == 0
    assert out == "order census: 1:1, 2:1, 3:20, 4:30, 5:24, 6:20, 10:24\n"
    doc = run_json(capsys, "icosa", "--census")
    assert doc["order_census"] == [
        [1, 1],
        [2, 1],
        [3, 20],
        [4, 30],
        [5, 24],
        [6, 20],
        [10, 24],
    ]


def test_icosa_verify(capsys):
    doc = run_json(capsys, "icosa", "--verify")
    assert doc["order"] == 120
    assert doc["perfect"] is True
    assert doc["center_size"] == 2
    assert set(doc["presentation"]) == {"h", "x1", "x2", "x3"}
    assert doc["regular_restrictions"]["2"]["copies"] == 60
    assert doc["regular_restrictions"]["3"]["copies"] == 40
    assert doc["regular_restrictions"]["5"]["copies"] == 24


def test_domain_errors_exit_with_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bernoulli", "--k", "0")
    assert code == 1
    assert out == ""
    assert "error: DomainError" in err
    code, _, err = run_cli(capsys, "seifert-check", "--input", "/no/such/file")
    assert code == 1
    assert "cannot read" in err
    for name, text in (
        ("latin1.json", b'{"pairs": [[2, -1], [3, 1], [5, 1]]}\xff'),
        ("deep.json", b"[" * 100000 + b"]" * 100000),
    ):
        path = tmp_path / name
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "seifert-check", "--input", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "is not valid JSON" in err


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["arf"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["kappa", "--family", "moebius", "--n", "1"])
    assert info.value.code == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    fixed = [
        ["einvariant", "--example", "1", "--json"],
        ["icosa", "--verify", "--json"],
        ["kappa", "--family", "proj", "--n", "6", "--json"],
        ["forms", "--g", "3", "--list", "--json"],
    ]
    for argv in fixed:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.skipif(shutil.which("spincalc") is None, reason="script not on PATH")
def test_console_entry_point():
    out = subprocess.run(
        ["spincalc", "einvariant", "--example", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "-1/12 (order 12)\n"


def test_console_entry_point_runs_main(capsys, monkeypatch):
    """The console script's target, as pyproject.toml declares it, is called
    with no arguments and reads them from sys.argv."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["spincalc"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    monkeypatch.setattr(sys, "argv", ["spincalc", "einvariant", "--example", "3"])
    assert entry() == 0
    assert capsys.readouterr() == ("-1/12 (order 12)\n", "")


_TWO_DIM_BUNDLE = {"pairs": [[2, -1], [3, 1], [5, 1]], "N": 2, "center": "trivial"}


@pytest.mark.parametrize(
    "fields",
    [
        {"profiles": [1, 2, 3]},
        {"center": {"scalar_exponent": "x"}, "profiles": []},
        {"profiles": [{"s_values": ["0", "1"]}]},
        {"profiles": [{"fiber": 1, "exponents": ["x", 1]}]},
        {"profiles": [{"fiber": 1, "s_values": 5}]},
        # Fraction() would build 10^3000000 exactly before failing
        {
            "N": 1,
            "profiles": [{"fiber": j, "s_values": ["1e3000000"]} for j in (1, 2, 3)],
        },
        {"N": 4, "profiles": [{"fiber": j, "s_values": "0101"} for j in (1, 2, 3)]},
        {"profiles": [{"fiber": j, "s_values": ["0", "1.5"]} for j in (1, 2, 3)]},
        {"profiles": [{"fiber": j, "s_values": ["0", 0.5]} for j in (1, 2, 3)]},
        {"profiles": [{"fiber": j, "s_values": ["0", True]} for j in (1, 2, 3)]},
        {"profiles": [{"fiber": j, "s_values": ["0", "1/00"]} for j in (1, 2, 3)]},
    ],
)
def test_malformed_documents_exit_with_one(capsys, tmp_path, fields):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_TWO_DIM_BUNDLE, **fields}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "einvariant", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: DomainError")


def test_s_values_accept_integers_and_digit_fractions(capsys, tmp_path):
    s_values = ["-3/4", "7", 2]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "pairs": [[2, -1], [3, 1], [5, 1]],
        "N": 3,
        "center": "trivial",
        "profiles": [{"fiber": j, "s_values": s_values} for j in (1, 2, 3)],
    }))
    doc = run_json(capsys, "einvariant", "--input", str(path))
    s = [Fraction(v) for v in s_values]
    e = -sum(Fraction(30) * x * x / (2 * a * a) for a in (2, 3, 5) for x in s) % 1
    assert doc["profiles"][0]["s_values"] == ["-3/4", "7", "2"]
    assert doc["e_invariant"]["residue"] == {
        "num": str(e.numerator), "den": str(e.denominator)
    }


def _src_env():
    src = os.path.dirname(os.path.dirname(spincalc.__file__))
    return dict(os.environ, PYTHONPATH=src)


def _modules_after(argv, cwd=None):
    """The names in sys.modules after `main(argv)` has run, and succeeded, in
    a fresh interpreter that imports nothing else, json included."""
    probe = (
        "import sys; from spincalc.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(sorted(sys.modules)); sys.exit(code)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=_src_env(),
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_cli_import_pulls_in_no_numeric_backend():
    probe = (
        "import sys, spincalc.cli; "
        "print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_src_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


# the F2 commands need no rational arithmetic and no other layer
F2_UNUSED = {"seifert", "exact_arith", "fractions", "char_classes", "polynomials"}
# the group model stands alone while flat bundles come to use it
GROUP_UNUSED = {"seifert", "cyclotomic", "exact_arith", "f2_forms", "char_classes",
                "polynomials", "fractions"}


@pytest.mark.parametrize(
    "argv, needed, unused",
    [
        (["bernoulli", "--k", "5"], "exact_arith", {"seifert", "f2_forms"}),
        (["arf", "--g", "1", "--basis-values", "11"], "f2_forms", F2_UNUSED),
        (["kappa", "--family", "sphere", "--n", "2"], "char_classes",
         {"seifert", "exact_arith", "fractions"}),
        (["lambda", "--family", "sphere", "--n", "6"], "char_classes",
         {"exact_arith", "fractions"}),
        (["rr", "--genus", "2", "--power", "3"], "char_classes",
         {"exact_arith", "fractions"}),
        (["forms", "--g", "3"], "f2_forms", F2_UNUSED),
        (["zeros", "--g", "2", "--basis-values", "1011"], "f2_forms", F2_UNUSED),
        # documents need neither the multiplicity search nor the group model
        (["seifert-check", "--input", "pairs.json"], "seifert",
         {"cyclotomic", "icosa_group"}),
        (["einvariant", "--input", "bundle.json"], "seifert",
         {"cyclotomic", "icosa_group"}),
        (["icosa", "--census"], "icosa_group", GROUP_UNUSED),
        (["icosa", "--verify"], "icosa_group", GROUP_UNUSED),
        (["bernoulli", "--k", "6", "--json"], "exact_arith", {"seifert", "f2_forms"}),
        (["forms", "--g", "3", "--json"], "f2_forms", F2_UNUSED),
        (["icosa", "--census", "--json"], "icosa_group", GROUP_UNUSED),
        # the worked examples read their multiplicities off a closed form
        (["einvariant", "--example", "1"], "seifert", {"cyclotomic", "icosa_group"}),
        (["einvariant", "--example", "3", "--json"], "seifert",
         {"cyclotomic", "icosa_group"}),
        (["stabilize", "--n", "1"], "icosa_group", {"cyclotomic"}),
    ],
)
def test_subcommand_loads_only_the_layers_it_uses(tmp_path, argv, needed, unused):
    _write_documents(tmp_path)
    # layers by their name in the package, other modules by their full name
    loaded = {m.removeprefix("spincalc.") for m in _modules_after(argv, tmp_path)}
    assert needed in loaded
    assert not unused & loaded
    # json is loaded only to read a document or to print one
    assert ("json" in loaded) == ("--input" in argv or "--json" in argv)


def test_closed_stdout_pipe_exits_quietly():
    # A buffered stdout meets the closed pipe only at the flush, which must
    # be inside main's try; PYTHONUNBUFFERED would hide a missing flush.
    buffered = {k: v for k, v in _src_env().items() if k != "PYTHONUNBUFFERED"}
    for argv, env in (
        (["einvariant", "--example", "1", "--json"], _src_env()),
        (["bernoulli", "--k", "6"], buffered),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "spincalc.cli", *argv],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (1, ""), argv


@pytest.fixture
def long_int_strings():
    """Lift the 4,300-digit int/str limit in the test process, to write and
    check long numbers; the CLI under test runs in a fresh process."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def _run_cli_process(tmp_path, document, *argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    return subprocess.run(
        [sys.executable, "-m", "spincalc.cli", *argv, "--input", str(path)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )


def test_long_pair_entries_print_in_full(tmp_path, long_int_strings):
    b = 10**4999 + 1
    out = _run_cli_process(
        tmp_path, {"pairs": [[2, -1], [3, 1], [5, b]]}, "seifert-check"
    )
    obstruction = 30 * (Fraction(-1, 2) + Fraction(1, 3) + Fraction(b, 5))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == (
        f"obstruction a*sum(b/a) = {obstruction}; integral homology sphere: no\n"
    )


def test_long_e_invariants_print_in_full(tmp_path, long_int_strings):
    s = "1/" + "7" * 4000
    document = {
        "pairs": [[2, -1], [3, 1], [5, 1]],
        "N": 1,
        "center": "trivial",
        "profiles": [
            {"fiber": 1, "s_values": [s]},
            {"fiber": 2, "s_values": ["0"]},
            {"fiber": 3, "s_values": ["0"]},
        ],
    }
    out = _run_cli_process(tmp_path, document, "einvariant", "--json")
    e = -(30 * Fraction(s) ** 2 / 8) % 1
    assert (out.returncode, out.stderr) == (0, "")
    doc = json.loads(out.stdout)
    assert len(doc["e_invariant"]["residue"]["den"]) > 4300
    assert doc["e_invariant"]["residue"] == {
        "num": str(e.numerator), "den": str(e.denominator)
    }
    assert doc["order"] is None


def test_integer_arguments_of_any_length_are_read(long_int_strings):
    m = 10**4400
    out = subprocess.run(
        [sys.executable, "-m", "spincalc.cli", "rr", "--genus", "3", "--power", str(m)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    index = (2 * m - 1) * (3 - 1)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"dim ker = {index}, dim coker = 0, index = {index}\n"


def test_benchmark_probe_prints_what_the_cli_prints(tmp_path):
    """perfbench/cli_probe.py times the CLI by patching `build_parser`,
    `print` and `json` in its module: with those hooks in place the probe
    must print what the plain CLI prints, and record the three spans."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]
    ))
    argv = ["arf", "--g", "1", "--basis-values", "11", "--json"]
    spans = tmp_path / "spans.jsonl"
    probe, plain = (
        subprocess.run(command + argv, env=env, capture_output=True, text=True)
        for command in (
            [sys.executable, str(root / "perfbench" / "cli_probe.py"), str(spans)],
            [sys.executable, "-m", "spincalc.cli"],
        )
    )
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, plain.stdout, "")
    names = {json.loads(line)[0] for line in spans.read_text().splitlines()[1:]}
    assert {"cli.parse", "cli.serialise", "cli.main"} <= names


def _readme_examples():
    """(arguments, stdout) for each `$ spincalc` line of the README that is
    followed by output."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ spincalc "):
            continue
        output = []
        for follow in lines[i + 1:]:
            if not follow or follow.startswith("```"):
                break
            output.append(follow)
        if output:
            examples.append((line[len("$ spincalc "):], "\n".join(output) + "\n"))
    return examples


_README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "arguments, expected", _README_EXAMPLES, ids=[a for a, _ in _README_EXAMPLES]
)
def test_readme_examples(capsys, arguments, expected):
    assert run_cli(capsys, *shlex.split(arguments)) == (0, expected, "")


_README_BUNDLE = {
    "pairs": [[2, -1], [3, 1], [5, 1]],
    "N": 18,
    "center": "trivial",
    "profiles": [
        {"fiber": 1, "s_values": ["0"] * 8 + ["1"] * 10},
        {"fiber": 2, "exponents": [0] * 6 + [18] * 6 + [36] * 6},
        {"fiber": 3, "exponents": [0] * 2 + [18] * 4 + [36] * 4 + [54] * 4 + [72] * 4},
    ],
}

_SCALAR_BUNDLE = {
    "pairs": [[2, -1], [3, 1], [5, 1]],
    "N": 4,
    "center": {"scalar_exponent": 2},
    "profiles": [
        {"fiber": 1, "s_values": ["0", "1/2", "1", "3/2"]},
        {"fiber": 2, "exponents": [0, 4, 8, 1]},
        {"fiber": 3, "s_values": ["0", "1", "2", "7/3"]},
    ],
}

_POINCARE_PAIRS = {"pairs": [[2, -1], [3, 1], [5, 1]]}

_GOLDEN_FILE = pathlib.Path(__file__).resolve().parent / "cli_golden.json"


def _write_documents(directory):
    (directory / "pairs.json").write_text(json.dumps(_POINCARE_PAIRS))
    (directory / "bundle.json").write_text(json.dumps(_README_BUNDLE))
    (directory / "scalar.json").write_text(json.dumps(_SCALAR_BUNDLE))


# Every README example as --json, and the commands the README shows no
# output for, in both forms.  cli_golden.json holds their stdout, key order
# and indentation included, and it must not change by a byte.
_GOLDEN_ARGUMENTS = [f"{arguments} --json" for arguments, _ in _README_EXAMPLES] + [
    f"{arguments}{flag}"
    for arguments in (
        "icosa --verify",
        "seifert-check --input pairs.json",
        "einvariant --input bundle.json",
        "einvariant --input scalar.json",
    )
    for flag in ("", " --json")
]
# Every characteristic-class family at small and larger indices, in both
# forms; the README already pins two of them as --json.
_CLASS_ARGUMENTS = [
    f"{command} --family {family} --n {n}{flag}"
    for command, families in (
        ("kappa", ("hp", "proj", "sphere", "torus")),
        ("lambda", ("sphere", "torus")),
    )
    for family in families
    for n in (0, 1, 2, 3, 5, 6, 12)
    for flag in ("", " --json")
]
_GOLDEN_ARGUMENTS += [a for a in _CLASS_ARGUMENTS if a not in _GOLDEN_ARGUMENTS]
# lambda_n at an index where most c3 terms are even and vanish
_GOLDEN_ARGUMENTS += [f"lambda --family sphere --n 2000{flag}" for flag in ("", " --json")]


def test_output_matches_recorded_bytes(capsys, tmp_path, monkeypatch):
    golden = json.loads(_GOLDEN_FILE.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(_GOLDEN_ARGUMENTS)
    _write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    for arguments in _GOLDEN_ARGUMENTS:
        assert run_cli(capsys, *shlex.split(arguments)) == (0, golden[arguments], "")


_PROBED_ARGV = [shlex.split(arguments) for arguments, _ in _README_EXAMPLES] + [
    ["icosa", "--verify"],
    ["seifert-check", "--input", "pairs.json"],
    ["einvariant", "--input", "bundle.json"],
]


@pytest.mark.parametrize("argv", _PROBED_ARGV, ids=" ".join)
def test_no_subcommand_loads_dataclasses(tmp_path, argv):
    """The result records are named tuples, so no subcommand pays for
    importing dataclasses and inspect at start-up."""
    (tmp_path / "pairs.json").write_text(json.dumps(_POINCARE_PAIRS))
    (tmp_path / "bundle.json").write_text(json.dumps(_README_BUNDLE))
    assert not {"dataclasses", "inspect"} & _modules_after(argv, cwd=tmp_path)


@pytest.mark.parametrize(
    "command, document, error",
    [
        ("einvariant", {**_README_BUNDLE, "N": 18.9}, "DomainError"),
        ("einvariant", {**_README_BUNDLE, "N": "18"}, "DomainError"),
        (
            "seifert-check",
            {"pairs": [[2, -1], [3, 1], [5, 1.5]]},
            "InvalidSeifertDataError",
        ),
        (
            "einvariant",
            {
                **_README_BUNDLE,
                "N": True,
                "profiles": [{"fiber": j, "s_values": ["0"]} for j in (1, 2, 3)],
            },
            "DomainError",
        ),
    ],
)
def test_integer_fields_must_be_json_integers(
    capsys, tmp_path, command, document, error
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {error}: ")


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


# Each list field of both documents, by its path, and the error class its
# command reports for it.
_LIST_FIELDS = [
    ("seifert-check", _POINCARE_PAIRS, ("pairs",), "InvalidSeifertDataError"),
    ("einvariant", _README_BUNDLE, ("pairs",), "InvalidSeifertDataError"),
    ("einvariant", _README_BUNDLE, ("profiles",), "DomainError"),
    ("einvariant", _README_BUNDLE, ("profiles", 0, "s_values"), "DomainError"),
    ("einvariant", _README_BUNDLE, ("profiles", 1, "exponents"), "DomainError"),
]

_WRONG_SHAPES = [
    (command, _replaced(doc, path, value), error)
    for command, doc, path, error in _LIST_FIELDS
    for value in ({}, "", "12", 7)
] + [
    (command, document, "InvalidSeifertDataError")
    for command, doc in (
        ("seifert-check", _POINCARE_PAIRS), ("einvariant", _README_BUNDLE)
    )
    for document in (
        {**doc, "pairs": [[2, -1], [3], [5, 1]]},
        [[2, -1], [3, 1], [5, 1]],
        "pairs",
    )
]


@pytest.mark.parametrize("command, document, error", _WRONG_SHAPES)
def test_documents_of_the_wrong_shape_are_rejected(
    capsys, tmp_path, command, document, error
):
    """A list field that is not a JSON list, a pair that is not two entries,
    and a document that is not a JSON object: exit 1 and one error line."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("big_n", [0, -1])
@pytest.mark.parametrize(
    "profiles",
    [
        _README_BUNDLE["profiles"],
        [{"fiber": j, "s_values": ["0"] * 18} for j in (1, 2, 3)],
    ],
    ids=["exponents", "s_values"],
)
def test_a_nonpositive_n_gives_one_error_for_both_profile_kinds(
    capsys, tmp_path, big_n, profiles
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_README_BUNDLE, "N": big_n, "profiles": profiles}))
    assert run_cli(capsys, "einvariant", "--input", str(path)) == (
        1, "", f"error: DomainError: N: must be positive, got {big_n}\n"
    )


_FUZZ_TARGETS = [
    (command, doc, path)
    for command, doc in (
        ("einvariant", _README_BUNDLE),
        ("einvariant", _SCALAR_BUNDLE),
        ("seifert-check", _POINCARE_PAIRS),
    )
    for path in _paths(doc)
]

# Integers stay small so that no document asks for a large computation.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)


def _assert_exits_cleanly(argv):
    """Exit 0 with nothing on stderr, or exit 1 with nothing on stdout and
    one `error:` line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert (code, out.getvalue()) == (1, "")
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(_FUZZ_TARGETS), value=_JSON_VALUES)
def test_document_parsers_exit_cleanly(tmp_path_factory, target, value):
    command, doc, path = target
    file = tmp_path_factory.getbasetemp() / "fuzz.json"
    file.write_text(json.dumps(_replaced(doc, path, value)))
    _assert_exits_cleanly([command, "--input", str(file)])


_SUBCOMMANDS = [
    "arf", "forms", "zeros", "bernoulli", "vonstaudt", "divisibility",
    "kappa", "lambda", "rr", "einvariant", "stabilize", "icosa",
]


@st.composite
def _subcommand_argv(draw):
    """Arguments that argparse accepts, for every subcommand but the two
    that read documents.  Sizes stay small so that each call is quick."""
    command = draw(st.sampled_from(_SUBCOMMANDS))

    def number(flag, lo, hi):
        return [flag, str(draw(st.integers(lo, hi)))]

    argv = [command]
    if command in ("arf", "zeros"):
        argv += number("--g", -2, 9)
        argv += ["--basis-values", draw(st.text(alphabet="01x", max_size=20))]
    elif command == "forms":
        g = draw(st.integers(-2, 9))
        argv += ["--g", str(g)]
        if g <= 4 and draw(st.booleans()):
            argv.append("--list")
    elif command in ("bernoulli", "vonstaudt"):
        argv += number("--k", -3, 40)
    elif command == "divisibility":
        argv += number("--index", -3, 40)
        if draw(st.booleans()):
            argv.append("--spin")
    elif command in ("kappa", "lambda"):
        argv += ["--family", draw(st.sampled_from(sorted(_CLASSES[command])))]
        argv += number("--n", -3, 40)
    elif command == "rr":
        argv += number("--genus", -2, 12) + number("--power", -12, 12)
    elif command == "einvariant":
        argv += ["--example", draw(st.sampled_from(["1", "2", "3"]))]
    elif command == "stabilize":
        argv += number("--n", -3, 40)
    else:
        argv.append(draw(st.sampled_from(["--census", "--verify"])))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_subcommand_argv())
def test_subcommand_arguments_exit_cleanly(argv):
    _assert_exits_cleanly(argv)
