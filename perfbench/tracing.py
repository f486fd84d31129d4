"""Spans around the public functions of riccati's modules, from outside.

`Tracer.install` replaces every module-level binding of a wrapped function
in every loaded `riccati` module (modules import these functions by name, so
`riccati.dare.solve_linear` and `riccati.care.solve_linear` are separate
bindings) and `Tracer.remove` puts the originals back.  Nothing under src/
changes.  Spans are (name, start_ns, end_ns, parent, cell) tuples kept in
memory; `write` saves them at the end of a run.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "riccati"
LAYERS = ("cli", "io", "generators", "linalg", "stein", "lyapunov", "dare", "care", "nme", "oracle")
SOLVER_LAYERS = {"stein", "lyapunov", "dare", "care", "nme"}
# private functions wrapped as well, because a public solver runs through them
EXTRA = {"dare._sda_core"}

# A span in one of these sets, and everything it calls, counts towards its
# category; the outermost such span wins, so dare_step inside dare_residual
# is residual work and cyclic_reduction_solve inside spectral_factorize is
# post-solve work.
STEP = {"stein.smith_step", "dare.dare_step", "dare.sda_step", "nme.nme_step", "nme.cr_step"}
RESIDUAL = {
    "stein.stein_residual",
    "lyapunov.lyap_residual",
    "dare.dare_residual",
    "care.care_residual",
    "nme.nme_residual",
    "nme.uqme_residual",
}
POST = {"dare.closed_loop_radius", "care.sign_extract", "nme.spectral_factorize"}


def solve_flops(m, b) -> int:
    """Real flops of one complex LU (8/3 n^3) plus its two triangular
    solves (8 n^2 k), computed from the shapes, not counted."""
    n = np.shape(m)[0]
    shape = np.shape(b)
    k = shape[1] if len(shape) == 2 else 1
    return (8 * n**3) // 3 + 8 * n * n * k


def _targets():
    """(qualified span name, function) for every wrapped function."""
    for layer in LAYERS:
        module = sys.modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            qualified = f"{layer}.{name}"
            if not name.startswith("_") or qualified in EXTRA:
                yield qualified, obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.cell = None  # label the benchmark sets around each cell
        self.flops: dict = {}  # span index -> computed flops of solve_linear
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if name == "linalg.solve_linear":
                self.flops[index] = solve_flops(args[0], args[1])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.cell)

        return traced

    def install(self):
        if self._saved:
            return
        wrappers = {fn: self._wrap(name, fn) for name, fn in _targets()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def remove(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,cell\n")
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{cell or ''}\n")


def analyse(tracer: Tracer, lo: int, hi: int) -> dict:
    """Self times, categories and counts of spans[lo:hi], one traced pass.

    A span's self time is its duration minus its children's durations.
    Parents always precede their children in `spans`.
    """
    spans = tracer.spans
    self_ns = {}
    category = {}
    totals = defaultdict(float)  # inclusive seconds per span name
    calls = defaultdict(int)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        self_ns[i] = self_ns.get(i, 0) + dur
        if parent >= lo:
            self_ns[parent] = self_ns.get(parent, 0) - dur
        totals[name] += dur * 1e-9
        calls[name] += 1
        inherited = category.get(parent) if parent >= lo else None
        if inherited in ("step", "residual", "post"):
            category[i] = inherited
        elif name in STEP:
            category[i] = "step"
        elif name in RESIDUAL:
            category[i] = "residual"
        elif name in POST:
            category[i] = "post"
        elif name.split(".", 1)[0] in SOLVER_LAYERS or inherited == "loop":
            category[i] = "loop"
        else:
            category[i] = None
    by_category = defaultdict(float)
    by_layer = defaultdict(float)
    residual_calls = 0
    for i in range(lo, hi):
        name, _, _, parent, _ = spans[i]
        seconds = self_ns[i] * 1e-9
        by_layer[name.split(".", 1)[0]] += seconds
        if category[i] is not None:
            by_category[category[i]] += seconds
        if name in RESIDUAL and not (parent >= lo and category.get(parent) in ("residual", "post")):
            residual_calls += 1
    return {
        "self_total": sum(self_ns.values()) * 1e-9,
        "by_category": dict(by_category),
        "by_layer": dict(by_layer),
        "totals": dict(totals),
        "calls": dict(calls),
        "residual_calls": residual_calls,
        "flops": sum(f for i, f in tracer.flops.items() if lo <= i < hi),
    }
