"""The spincalc benchmark: three workloads, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 20 --trace 0

Workloads (all closed loops with one client, see README.md):
  cli_oneshot    one fresh `python -m spincalc.cli` process per op
  library_sweep  many small public-API calls with repeated arguments
  library_deep   few large public-API calls, no argument repeated in a run

--trace 0 prints the end-to-end metrics; --trace 1 runs traced and
untraced passes alternately and prints the per-layer metrics, writing the
spans to .perfbench_out/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from importlib import metadata, util

import cli_ops
import layertrace
import library
import oracles

WORKLOADS = ("cli_oneshot", "library_sweep", "library_deep")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
# Each CLI op runs its process this many times and keeps the fastest, so a
# stall of the shared host during one process start does not read as the
# program's latency.
CLI_REPEATS = 2
HERE = os.path.dirname(os.path.abspath(__file__))

Rec = namedtuple("Rec", "kind wall cpu ok traced")


# ------------------------------------------------------------ processes


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd, tmp):
    """Run one process to completion: (wall s, cpu s, maxrss KiB, rc, out, err).

    Output goes to unlinked files in tmp, and the child is reaped with
    wait4 so that its own rusage is read, not the sum over all children.
    """
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode,
                out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def median_child_wall(argv, env, cwd, tmp, samples) -> float:
    return statistics.median(run_child(argv, env, cwd, tmp)[0] for _ in range(samples))


# ---------------------------------------------------------------- facts


def machine_facts(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": util.find_spec("numba") is not None,
        "loadavg_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------- stats


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest nearest-rank
    percentile with ten samples beyond it, i.e. the 11th-largest sample.
    Below 20 samples it is the median rank instead."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n >= 20 else math.ceil(n / 2)
    return 100 * rank / n, ordered[rank - 1], n - rank


def end_to_end(records, setup_s: float, peak_rss_mb: float) -> tuple[dict, list[str]]:
    walls = [r.wall for r in records]
    pct, tail_value, beyond = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "latency_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "cpu_ms_per_op": (sum(r.cpu for r in records) / len(records) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"latency_tail_ms is p{pct:.2f} of {len(walls)} ops ({beyond} beyond it)"]
    return metrics, notes


def tracing_overhead(records) -> float:
    """Time the traced ops took over the time the same kinds of op took
    untraced, minus one; kinds seen only one way are left out."""
    by_kind: dict = {}
    for r in records:
        by_kind.setdefault((r.kind, r.traced), []).append(r.wall)
    traced = untraced = 0.0
    for (kind, was_traced), walls in by_kind.items():
        other = by_kind.get((kind, False))
        if was_traced and other:
            traced += sum(walls)
            untraced += len(walls) * statistics.fmean(other)
    return traced / untraced - 1 if untraced else 0.0


def per_layer(tracer, records, op_walls: dict, imports: dict, floor_ms: float, crashes: int) -> dict:
    spans = tracer.spans
    summary = layertrace.summarise(spans)
    counts = tracer.counts
    n = max(1, sum(1 for r in records if r.traced))

    def span_ms(name):
        return sum((e - s) * 1e3 for nm, s, e, parent, _ in spans
                   if nm == name and (parent < 0 or spans[parent][0] != name))

    parse, serialise, main = span_ms("cli.parse"), span_ms("cli.serialise"), span_ms("cli.main")
    calls = counts.get("exact_arith.bernoulli_calls", 0)
    leaves = counts.get("cyclotomic.element_calls", 0)
    values = {
        "cli.floor_ms": (floor_ms, "ms"),
        "cli.import_ms": (imports.get("cli.import_ms", 0.0), "ms"),
        "kernels.import_ms": (imports.get("kernels.import_ms", 0.0), "ms"),
        "char_classes.import_ms": (imports.get("char_classes.import_ms", 0.0), "ms"),
        "f2_forms.import_ms": (imports.get("f2_forms.import_ms", 0.0), "ms"),
        "seifert.import_ms": (imports.get("seifert.import_ms", 0.0), "ms"),
        "cli.parse_ms": (parse / n, "ms/op"),
        "cli.compute_ms": ((main - parse - serialise) / n if main else 0.0, "ms/op"),
        "cli.serialise_ms": (serialise / n, "ms/op"),
        "cli.cpu_ms": (counts.get("cli.cpu_s", 0.0) * 1e3 / n, "ms/op"),
        "cli.traceback_docs": (crashes, "count"),
        "seifert.solve_hit_frac": (counts.get("seifert.solutions", 0) / leaves if leaves else 0.0, "ratio"),
        "exact_arith.bernoulli_repeat_frac": (
            counts.get("exact_arith.bernoulli_repeats", 0) / calls if calls else 0.0, "ratio"),
        "bench.tracing_overhead_frac": (tracing_overhead(records), "ratio"),
        "bench.span_coverage_frac": (layertrace.coverage(spans, op_walls), "ratio"),
    }
    for layer in ("kernels", "f2_forms", "exact_arith", "char_classes", "polynomials", "icosa_group"):
        values[f"{layer}.self_ms"] = (summary.get(f"{layer}.self_ms", 0.0) / n, "ms/op")
    for layer in ("kernels", "f2_forms", "exact_arith", "char_classes", "polynomials"):
        values[f"{layer}.calls"] = (summary.get(f"{layer}.calls", 0) / n, "count/op")
    for name in ("f2_forms.normalize_ms", "seifert.e_general_ms", "seifert.e_simple_ms",
                 "seifert.parse_ms", "seifert.solve_ms"):
        values[name] = (summary.get(name, 0.0) / n, "ms/op")
    for name in ("kernels.vectors_evaluated", "exact_arith.todd_rebuilds", "exact_arith.todd_degree_sum",
                 "seifert.pair_terms", "seifert.solve_calls", "cyclotomic.element_calls",
                 "icosa_group.mul_calls"):
        values[name] = (counts.get(name, 0) / n, "count/op")
    return values


def import_split(root, env, tmp) -> tuple[dict, float]:
    """Median per-layer import self time of spincalc.cli, and the floor."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        err = run_child([sys.executable, "-X", "importtime", "-c", "import spincalc.cli"],
                        env, root, tmp)[5]
        for key, ms in layertrace.import_self_ms(err).items():
            samples.setdefault(key, []).append(ms)
    floor = median_child_wall([sys.executable, "-c", "pass"], env, root, tmp, IMPORT_SAMPLES)
    return {k: statistics.median(v) for k, v in samples.items()}, floor * 1e3


# ------------------------------------------------------------- workloads


def _safe_check(check, *args) -> bool:
    try:
        return bool(check(*args))
    except Exception:  # a malformed answer is a failed op, not a crashed run
        return False


def run_cli_op(op, argv_for, env, root, tmp):
    """Run one CLI op CLI_REPEATS times, run i as the process argv_for(i),
    and keep the fastest run: (wall s, cpu s, maxrss KiB, ok, failure note,
    index of the kept run).  The op fails if any run fails its check."""
    best, peak_kb, note = None, 0, None
    for i in range(CLI_REPEATS):
        wall, cpu, maxrss, rc, out, err = run_child(argv_for(i), env, root, tmp)
        peak_kb = max(peak_kb, maxrss)
        if not _safe_check(op.check, out, err, rc):
            note = f"{' '.join(op.argv)}: rc={rc} {err.strip()[-200:]}"
        if best is None or wall < best[0]:
            best = (wall, cpu, i)
    return best[0], best[1], peak_kb, note is None, note, best[2]


def run_cli(root, seed, seconds, trace, tmp, tracer, failures):
    """Ops until `seconds` have passed; with trace, every other op runs
    under cli_probe.py and the spans of its kept run are merged into tracer."""
    rng = random.Random(seed)
    table = oracles.bernoulli_table(6)
    env = child_env(root)
    probe = os.path.join(HERE, "cli_probe.py")
    spans_file = os.path.join(tmp, "child-spans-{}.jsonl")
    records, op_walls, peak_kb = [], {}, 0
    start = time.perf_counter()
    index = 0
    while True:
        for op in cli_ops.cli_pass(rng, tmp, index, table):
            if records and time.perf_counter() - start >= seconds:
                return records, op_walls, peak_kb / 1024
            traced = trace and len(records) % 2 == 1
            if traced:
                def argv_for(i, op=op):
                    return [sys.executable, probe, spans_file.format(i), *op.argv]
            else:
                def argv_for(i, op=op):
                    return [sys.executable, "-m", "spincalc.cli", *op.argv]
            wall, cpu, maxrss, ok, note, kept = run_cli_op(op, argv_for, env, root, tmp)
            if note:
                failures.append(note)
            if traced:
                op_walls[len(records)] = wall
                for i in range(CLI_REPEATS):
                    if i == kept:
                        _merge_child_spans(tracer, spans_file.format(i), len(records))
                    elif os.path.exists(spans_file.format(i)):
                        os.remove(spans_file.format(i))
            else:
                peak_kb = max(peak_kb, maxrss)
            records.append(Rec(op.kind, wall, cpu, ok, traced))
        index += 1


def _merge_child_spans(tracer, path, op_id) -> None:
    if not os.path.exists(path):  # the child died before it could write
        return
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        base = len(tracer.spans)
        for line in fh:
            name, s, e, parent, _ = json.loads(line)
            tracer.spans.append((name, s, e, parent + base if parent >= 0 else -1, op_id))
    for key, v in header["counts"].items():
        tracer.count(key, v)
    os.remove(path)


def known_crashes(root, tmp) -> int:
    """How many of the known crash documents still end in a traceback."""
    env = child_env(root)
    crashes = 0
    for i, (cmd, doc) in enumerate(cli_ops.KNOWN_CRASHES):
        path = cli_ops.write_doc(tmp, f"crash{i}.json", doc)
        _, _, _, rc, out, err = run_child([sys.executable, "-m", "spincalc.cli", cmd, "--input", path],
                                          env, root, tmp)
        crashes += not cli_ops.clean_error(out, err, rc)
    return crashes


def run_op(op, tracer, op_id):
    """Time one library op (tracer records it under op_id unless None):
    (wall s, cpu s, ok, failure note)."""
    tracer.op = op_id
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op.call()
        raised = None
    except Exception:  # counted as a failed op
        raised = traceback.format_exc(limit=1).strip().splitlines()[-1]
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    tracer.op = None
    ok = raised is None and _safe_check(op.check, result)
    return t1 - t0, cpu1 - cpu0, ok, None if ok else f"{op.kind}: {raised or 'wrong answer'}"


def run_library(root, workload, seed, seconds, trace, tracer, failures):
    """Whole passes until `seconds` have passed, so every run has the same
    mix of ops; with trace, passes 0, 2, 4, ... run with tracer installed."""
    sys.path.insert(0, os.path.join(root, "src"))
    import spincalc as S

    rng = random.Random(seed)
    deep = workload == "library_deep"
    table = oracles.bernoulli_table(library.BERNOULLI_MAX if deep else 60)
    offsets = (rng.randrange(2), rng.randrange(31))
    records, op_walls = [], {}
    start = time.perf_counter()
    index = 0
    while not records or time.perf_counter() - start < seconds:
        ops = library.deep_pass(S, rng, index, offsets, table) if deep else library.sweep_pass(S, rng, table)
        rng.shuffle(ops)
        traced = trace and index % 2 == 0
        if traced:
            tracer.install()
            tracer.new_pass()
        try:
            for op in ops:
                op_id = len(records)
                wall, cpu, ok, note = run_op(op, tracer, op_id if traced else None)
                if note:
                    failures.append(note)
                if traced:
                    op_walls[op_id] = wall
                records.append(Rec(op.kind, wall, cpu, ok, traced))
        finally:
            if traced:
                tracer.uninstall()
        index += 1
    return records, op_walls, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spincalc", "cli.py")):
        print("error: no spincalc sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    facts = machine_facts(args.seed, args.workload)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        env = child_env(root)
        stmt = "import spincalc.cli" if args.workload == "cli_oneshot" else "import spincalc"
        setup_s = median_child_wall([sys.executable, "-c", stmt], env, root, tmp, SETUP_SAMPLES)
        tracer = layertrace.Tracer()
        failures: list[str] = []
        crashes = 0
        if args.workload == "cli_oneshot":
            crashes = known_crashes(root, tmp)
            records, op_walls, peak_mb = run_cli(root, args.seed, args.seconds, bool(args.trace), tmp,
                                                 tracer, failures)
        else:
            records, op_walls, peak_mb = run_library(root, args.workload, args.seed, args.seconds,
                                                     bool(args.trace), tracer, failures)
        if args.trace:
            imports, floor_ms = import_split(root, env, tmp)
            metrics = per_layer(tracer, records, op_walls, imports, floor_ms, crashes)
            notes = [f"{sum(r.traced for r in records)} of {len(records)} ops traced"]
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path, facts)
            notes.append(f"spans written to {os.path.relpath(spans_path, root)}")
        else:
            metrics, notes = end_to_end(records, setup_s, peak_mb)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    print("machine: " + json.dumps(facts))
    if args.workload == "cli_oneshot":
        print(f"known defect: {crashes} of {len(cli_ops.KNOWN_CRASHES)} malformed documents "
              "end in a traceback instead of one error: line (probe, not a timed op)")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in failures[:10]:
        print(f"failed op: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
