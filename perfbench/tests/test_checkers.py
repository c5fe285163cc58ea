"""Each workload's checker counts a deliberately wrong answer as a failure.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import os
import random
import sys

import pytest

import cli_ops
import layertrace
import library
import oracles
import run
import spincalc as S

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _pick(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_cli_oneshot_counts_wrong_stdout(tmp_path):
    ops = cli_ops.cli_pass(random.Random(0), str(tmp_path), 0, oracles.bernoulli_table(6))
    op = _pick(ops, "arf")
    env = run.child_env(ROOT)
    cli = [sys.executable, "-m", "spincalc.cli", *op.argv]
    assert run.run_cli_op(op, lambda i: cli, env, ROOT, str(tmp_path))[3]
    liar = [sys.executable, "-c", "print('arf = 0 (multiplicative +1)')"]
    ok, note = run.run_cli_op(op, lambda i: liar, env, ROOT, str(tmp_path))[3:5]
    assert not ok and note
    # one wrong run out of the repeats fails the op
    ok = run.run_cli_op(op, lambda i: cli if i else liar, env, ROOT, str(tmp_path))[3]
    assert not ok


def test_cli_oneshot_counts_traceback_on_malformed_document(tmp_path):
    op = cli_ops.CliOp("malformed", ["einvariant"], cli_ops.clean_error)
    env = run.child_env(ROOT)
    crash = [sys.executable, "-c", "raise TypeError('boom')"]
    assert not run.run_cli_op(op, lambda i: crash, env, ROOT, str(tmp_path))[3]
    clean = [sys.executable, "-c", "import sys; print('error: X: y', file=sys.stderr); sys.exit(1)"]
    assert run.run_cli_op(op, lambda i: clean, env, ROOT, str(tmp_path))[3]


def test_library_sweep_counts_wrong_answer_and_exception():
    ops = library.sweep_pass(S, random.Random(0), oracles.bernoulli_table(60))
    tracer = layertrace.Tracer()
    op = _pick(ops, "form_row")
    assert run.run_op(op, tracer, None)[2]

    def more_zeros():
        basis, gauss, zeros = op.call()
        return basis, gauss, zeros + 2

    assert not run.run_op(op._replace(call=more_zeros), tracer, None)[2]
    op = _pick(ops, "sphere_lambda")

    def boom():
        raise ValueError("boom")

    assert not run.run_op(op._replace(call=boom), tracer, None)[2]


def test_library_deep_counts_wrong_answer():
    ops = library.deep_pass(S, random.Random(0), 1, (0, 0), oracles.bernoulli_table(library.BERNOULLI_MAX))
    tracer = layertrace.Tracer()
    op = _pick(ops, "einvariant_N60_trivial")
    assert run.run_op(op, tracer, None)[2]

    def shifted():
        doc = copy.deepcopy(op.call())
        doc["e_invariant"]["residue"]["num"] = str(int(doc["e_invariant"]["residue"]["num"]) + 1)
        return doc

    assert not run.run_op(op._replace(call=shifted), tracer, None)[2]
    op = _pick(ops, "multiplicity_solve_m5")
    assert run.run_op(op, tracer, None)[2]
    assert not run.run_op(op._replace(call=lambda: (120, 0, 0, 0, 0)), tracer, None)[2]


def test_import_time_is_charged_to_the_importing_layer():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:      4000 |       4000 |           numpy.core",
        "import time:      1000 |       5000 |         numpy",
        "import time:       500 |       5500 |       spincalc._kernels",
        "import time:       200 |       5700 |     spincalc.f2_forms",
        "import time:        50 |       5750 |   spincalc",
        "import time:       300 |        300 |   argparse",
        "import time:        70 |       6120 | spincalc.cli",
    ])
    assert layertrace.import_self_ms(stderr) == pytest.approx({
        "kernels.import_ms": 5.5,
        "f2_forms.import_ms": 0.2,
        "cli.import_ms": 0.42,
    })


def test_self_time_subtracts_children():
    spans = [("a.f", 0.0, 10.0, -1, 0), ("b.g", 1.0, 4.0, 0, 0), ("b.h", 5.0, 6.0, 0, 0)]
    assert layertrace.self_times(spans) == [6.0, 3.0, 1.0]
    assert layertrace.coverage(spans, {0: 20.0}) == 0.5


def test_tail_takes_highest_percentile_with_ten_beyond():
    samples = list(range(100, 0, -1))
    assert run.tail(samples) == (90, 90, 10)
    assert run.tail(samples[60:]) == (75, 30, 10)
    assert run.tail([3, 1, 2]) == (200 / 3, 2, 1)
