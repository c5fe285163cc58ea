"""Spans and counts around spincalc's layers, recorded from outside.

`Tracer.install` wraps, by name, every public function of each layer module
(and the public and arithmetic methods of the classes defined there) and
rebinds each wrapper wherever spincalc holds the original, so calls between
modules are seen too.  `uninstall` puts the originals back; with no tracer
installed the library runs unmodified.  Layers that a later version of the
package drops are skipped, so nothing here depends on a private name
existing.

Spans stay in memory as (name, start, end, parent, op) tuples and are
written out once, when the run ends.  Layer self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time

LAYERS = (
    "cli",
    "_kernels",
    "f2_forms",
    "exact_arith",
    "char_classes",
    "polynomials",
    "seifert",
    "cyclotomic",
    "icosa_group",
)

# Method names wrapped on classes besides public ones: the arithmetic that
# the polynomial and ModZ layers do their work in.
_ARITH = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__"}


def metric_layer(layer: str) -> str:
    """Metric names must start with a letter: _kernels reports as kernels."""
    return layer.lstrip("_")


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    try:
        return _signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.op = None  # id of the op being run; nothing is recorded while None
        self._stack: list[int] = []
        self._patched: list = []
        self._seen_k: set = set()

    # ------------------------------------------------------------ recording
    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def new_pass(self) -> None:
        self._seen_k = set()

    def span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
                if hook is not None:
                    hook(self, fn, args, kwargs, ok)

        return traced

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, -1, self.op))

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            if layer == "cli":
                continue
            try:
                mod = importlib.import_module(f"spincalc.{layer}")
            except ImportError:
                continue
            prefix = metric_layer(layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                        self._wrap_class(obj, prefix)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if inspect.isfunction(inspect.unwrap(obj)):
                        hook = _HOOKS.get(f"{layer}.{name}") or _HOOKS.get(f"{layer}.*")
                        wrapped = self.span(f"{prefix}.{name}", obj, hook)
                        originals[id(obj)] = wrapped
                        self._set(mod, name, obj, wrapped)
        # rebind wherever else spincalc holds the same function object
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "spincalc" or modname.startswith("spincalc.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None and obj is not wrapped:
                    self._set(mod, name, obj, wrapped)

    def _wrap_class(self, cls, prefix: str) -> None:
        for name, obj in list(vars(cls).items()):
            if not (name in _ARITH or not name.startswith("_")):
                continue
            label = f"{prefix}.{cls.__name__}.{name.strip('_')}"
            if inspect.isfunction(obj):
                self._set(cls, name, obj, self.span(label, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, name, obj, classmethod(self.span(label, obj.__func__)))

    def _set(self, owner, name, old, new) -> None:
        self._patched.append((owner, name, old))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patched):
            setattr(owner, name, old)
        self._patched = []

    # ------------------------------------------------------------ reporting
    def write(self, path: str, facts: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"facts": facts, "counts": self.counts}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# Counts computed from call arguments at the layer boundary.


def _kernels_hook(tr, fn, args, kwargs, ok):
    g = _arg(fn, args, kwargs, "g")
    if isinstance(g, int):
        tr.count("kernels.vectors_evaluated", 4**g)


def _todd_hook(tr, fn, args, kwargs, ok):
    tr.count("exact_arith.todd_rebuilds")
    d = _arg(fn, args, kwargs, "max_degree")
    if isinstance(d, int):
        tr.count("exact_arith.todd_degree_sum", d)


def _bernoulli_hook(tr, fn, args, kwargs, ok):
    k = _arg(fn, args, kwargs, "k")
    tr.count("exact_arith.bernoulli_calls")
    if k in tr._seen_k:
        tr.count("exact_arith.bernoulli_repeats")
    tr._seen_k.add(k)


def _pair_terms(square: bool):
    def hook(tr, fn, args, kwargs, ok):
        spec = _arg(fn, args, kwargs, "spec")
        n = getattr(spec, "dimension", None)
        fibers = len(getattr(spec, "profiles", ()))
        if isinstance(n, int):
            tr.count("seifert.pair_terms", fibers * (n * n if square else n))

    return hook


def _solve_hook(tr, fn, args, kwargs, ok):
    tr.count("seifert.solve_calls")
    if ok:
        tr.count("seifert.solutions")


def _counter(name):
    def hook(tr, fn, args, kwargs, ok):
        tr.count(name)

    return hook


_HOOKS = {
    "_kernels.*": _kernels_hook,
    "exact_arith.todd_coefficients": _todd_hook,
    "exact_arith.bernoulli_paper": _bernoulli_hook,
    "seifert.e_general": _pair_terms(True),
    "seifert.e_simple": _pair_terms(False),
    "seifert.multiplicity_solve": _solve_hook,
    "cyclotomic.element": _counter("cyclotomic.element_calls"),
    "icosa_group.mul": _counter("icosa_group.mul_calls"),
}


# ------------------------------------------------------------- derivations


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarise(spans) -> dict:
    """Per-layer self time and call counts, and the inclusive times of the
    spans the per-layer metrics name (ms, totals over all spans)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v

    for (name, start, end, parent, _), self_s in zip(spans, selfs):
        layer, _, short = name.partition(".")
        add(f"{layer}.self_ms", self_s * 1e3)
        add(f"{layer}.calls", 1)
        outer = parent < 0 or spans[parent][0] != name
        if short == "normalize" and outer:
            add("f2_forms.normalize_ms", (end - start) * 1e3)
        elif short == "e_general":
            add("seifert.e_general_ms", (end - start) * 1e3)
        elif short == "e_simple":
            add("seifert.e_simple_ms", (end - start) * 1e3)
        elif short == "multiplicity_solve":
            add("seifert.solve_ms", (end - start) * 1e3)
        elif short.endswith("from_document") and layer == "seifert":
            if parent < 0 or not spans[parent][0].endswith("from_document"):
                add("seifert.parse_ms", (end - start) * 1e3)
    return out


def coverage(spans, op_walls: dict) -> float:
    """Share of op wall time covered by each op's root spans."""
    covered: dict = {}
    for name, start, end, parent, op in spans:
        if parent < 0 and op in op_walls:
            covered[op] = covered.get(op, 0.0) + (end - start)
    total = sum(op_walls.values())
    return sum(min(covered.get(op, 0.0), w) for op, w in op_walls.items()) / total if total else 0.0


# --------------------------------------------------------------- importtime

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_self_ms(stderr: str) -> dict[str, float]:
    """Charge `-X importtime` self times to the spincalc layer whose import
    pulled each module in.  The package itself and its error classes count
    as the CLI's; modules imported outside spincalc are left out (they are
    the interpreter's floor)."""
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m.group(1)), len(m.group(3)), m.group(4)))
    out: dict[str, float] = {}
    # importtime prints children before their parent, more deeply indented
    pending: list[tuple[int, list]] = []  # (depth, [self_us of uncharged rows])
    for self_us, depth, name in rows:
        children = []
        while pending and pending[-1][0] > depth:
            children.extend(pending.pop()[1])
        layer = _layer_for_module(name)
        if layer is None:
            pending.append((depth, [self_us] + children))
        else:
            key = f"{metric_layer(layer)}.import_ms"
            out[key] = out.get(key, 0.0) + (self_us + sum(children)) / 1e3
            pending.append((depth, []))
    return out


def _layer_for_module(name: str):
    if name == "spincalc" or name == "spincalc.errors":
        return "cli"
    if name.startswith("spincalc."):
        layer = name.split(".")[1]
        return layer if layer in LAYERS else "cli"
    return None
