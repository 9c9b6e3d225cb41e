"""Per-layer tracing of l0kit from outside the package.

A Tracer rebinds the public functions and operator methods of the solve-path
modules (operators, problem, lsq, pdasc, baselines, harness) to wrappers that
record a span (name, start, end, parent, root) and a few work counters per
call. Nothing under ``src/`` is edited: the wrappers replace every binding of
the original object, which covers three import-time aliases:

* ``l0kit.pdasc`` is the re-exported function, so the module is reached with
  ``importlib.import_module("l0kit.pdasc")``;
* ``harness._MATRIX_GENERATORS`` holds the ``gen_*_operator`` functions;
* ``pdasc`` and ``baselines`` call ``solve_direct``, ``solve_cg`` and
  ``pdas_inner`` through their own module globals.

Spans stay in memory until ``write_spans``. Self time is a span's duration
minus the durations of its direct children; the benchmark is single-threaded,
so children never overlap.
"""

import contextlib
import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict

import numpy as np

_MODULES = ("operators", "problem", "lsq", "pdasc", "baselines", "harness")

# (module, function name, span name) for every traced module-level function.
_FUNCTIONS = [
    ("operators", "gen_gaussian_operator", "operators.gen"),
    ("operators", "gen_bernoulli_operator", "operators.gen"),
    ("operators", "gen_partial_dct_operator", "operators.gen"),
    ("problem", "gen_sparse_signal", "problem.gen_sparse_signal"),
    ("problem", "synthesize_instance", "problem.synthesize_instance"),
    ("lsq", "solve_direct", "lsq.solve_direct"),
    ("lsq", "solve_cg", "lsq.solve_cg"),
    ("pdasc", "pdasc", "pdasc.pdasc"),
    ("pdasc", "pdas_inner", "pdasc.pdas_inner"),
    ("baselines", "omp", "baselines.omp"),
    ("baselines", "htp", "baselines.htp"),
    ("baselines", "cosamp", "baselines.cosamp"),
    ("baselines", "iht", "baselines.iht"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "make_instance", "harness.make_instance"),
]

_OPERATOR_METHODS = ("apply", "adjoint_apply", "columns")

BASELINES = ("omp", "htp", "cosamp", "iht")

# Every per-layer metric a traced run reports, with its unit. Counts repeat
# exactly for a given seed and plan; times do not.
LAYER_METRICS = {
    "operators.gen.self_s": "s",
    "operators.apply.calls": "count",
    "operators.apply.self_s": "s",
    "operators.adjoint_apply.calls": "count",
    "operators.adjoint_apply.self_s": "s",
    "operators.columns.calls": "count",
    "operators.columns.cols": "count",
    "operators.columns.self_s": "s",
    "operators.columns.unique_frac": "ratio",
    "operators.bytes_computed": "bytes",
    "lsq.solve_direct.calls": "count",
    "lsq.solve_direct.self_s": "s",
    "lsq.solve_direct.mean_k": "cols",
    "lsq.solve_direct.flops_computed": "flop",
    "lsq.solve_direct.singular": "count",
    "lsq.solve_cg.calls": "count",
    "lsq.solve_cg.self_s": "s",
    "lsq.solve_cg.iters": "count",
    "lsq.solve_cg.capped_frac": "ratio",
    "pdasc.pdasc.self_s": "s",
    "pdasc.lambda_steps": "count",
    "pdasc.pdas_inner.calls": "count",
    "pdasc.pdas_inner.self_s": "s",
    "pdasc.inner_solves": "count",
    "pdasc.fixed_point_frac": "ratio",
    **{f"baselines.{b}.{m}": u for b in BASELINES
       for m, u in (("calls", "count"), ("self_s", "s"), ("iters", "count"))},
    "problem.gen_sparse_signal.self_s": "s",
    "problem.synthesize_instance.self_s": "s",
    "harness.run_sweep.self_s": "s",
    "harness.make_instance.calls": "count",
    "harness.make_instance.self_s": "s",
}


def l0kit_modules():
    """The solve-path modules by short name (the modules, not same-named re-exports)."""
    return {name: importlib.import_module(f"l0kit.{name}") for name in _MODULES}


class Tracer:
    """Records spans and work counters while its patches are installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, root index]
        self.counts = defaultdict(float)
        self._stack = []
        self._paused = False
        self._seen_columns = weakref.WeakKeyDictionary()  # operator -> column indices seen
        self._restore = []

    # ----------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (its root spans)."""
        if self._paused:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record nothing (the correctness checks)."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(idx)
                count(self, args, kwargs, None, err)
                raise
            self._close(idx)
            count(self, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------------- patching
    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function and method while the block runs."""
        mods = l0kit_modules()
        namespaces = [vars(importlib.import_module("l0kit"))] + [vars(m) for m in mods.values()]
        namespaces.append(mods["harness"]._MATRIX_GENERATORS)
        try:
            for mod, attr, span_name in _FUNCTIONS:
                original = getattr(mods[mod], attr)
                wrapped = self._wrap(span_name, original, _COUNTERS.get(span_name, _no_count))
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._set(ns, key, wrapped)
            base = mods["operators"].SensingOperator
            for cls in vars(mods["operators"]).values():
                if not (isinstance(cls, type) and issubclass(cls, base)):
                    continue
                for method in _OPERATOR_METHODS:
                    if method in vars(cls):
                        wrapped = self._wrap(f"operators.{method}", vars(cls)[method],
                                             _COUNTERS[f"operators.{method}"])
                        self._set_attr(cls, method, wrapped)
            yield self
        finally:
            for undo in reversed(self._restore):
                undo()
            self._restore.clear()

    def _set(self, ns, key, value):
        old = ns[key]
        ns[key] = value
        self._restore.append(lambda: ns.__setitem__(key, old))

    def _set_attr(self, obj, key, value):
        old = vars(obj)[key]
        setattr(obj, key, value)
        self._restore.append(lambda: setattr(obj, key, old))

    # ---------------------------------------------------------------- results
    def _child_time(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self):
        """{span name: (calls, self time)} over all spans."""
        child = self._child_time()
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return out

    def unaccounted_frac(self):
        """Share of the root spans' time that no child span covers."""
        child = self._child_time()
        total = uncovered = 0.0
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent < 0:
                total += end - start
                uncovered += end - start - child[i]
        return uncovered / total if total > 0 else 0.0

    def layer_metrics(self):
        """Every metric in LAYER_METRICS; 0 where the layer made no calls."""
        spans = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = dict(c)
        m["operators.columns.unique_frac"] = ratio(c["columns.distinct"],
                                                   c["operators.columns.cols"])
        m["lsq.solve_direct.mean_k"] = ratio(c["solve_direct.k"], spans["lsq.solve_direct"][0])
        m["lsq.solve_cg.capped_frac"] = ratio(c["solve_cg.capped"], spans["lsq.solve_cg"][0])
        m["pdasc.fixed_point_frac"] = ratio(c["pdas_inner.fixed_point"],
                                            spans["pdasc.pdas_inner"][0])
        for key in LAYER_METRICS:
            span, _, kind = key.rpartition(".")
            if kind == "calls":
                m[key] = spans[span][0]
            elif kind == "self_s":
                m[key] = spans[span][1]
        return {k: float(m.get(k, 0.0)) for k in LAYER_METRICS}

    def write_spans(self, path):
        """Spans as JSON: {"fields": [...], "spans": [[name, start, end, parent, root], ...]}."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "root"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# ------------------------------------------------------------- work counters
# Each counter sees (tracer, args, kwargs, result, error) after the call and
# adds to tracer.counts, keyed by metric name or by a ratio's numerator.

_LSQ = importlib.import_module("l0kit.lsq")

def _no_count(tr, args, kwargs, result, error):
    pass


def _operand_bytes(op):
    """Bytes one apply or adjoint reads and writes, computed from shapes: the
    input and output vectors plus the explicit matrix (dense) or the column
    scale vector (partial DCT). Cache misses and FFT passes are ignored."""
    mat = getattr(op, "mat", None)
    data = op.n * op.p if mat is not None else op.p
    return 8 * (data + op.n + op.p)


def _count_apply(tr, args, kwargs, result, error):
    tr.counts["operators.bytes_computed"] += _operand_bytes(args[0])


def _count_columns(tr, args, kwargs, result, error):
    op, indices = args[0], np.asarray(args[1], dtype=np.intp).ravel()
    seen = tr._seen_columns.setdefault(op, set())
    before = len(seen)
    seen.update(indices.tolist())
    tr.counts["operators.columns.cols"] += indices.size
    tr.counts["columns.distinct"] += len(seen) - before
    # dense: gather k columns (read + write n*k); matrix-free: one length-p
    # transform per column plus the n selected rows
    per_col = 2 * op.n if getattr(op, "mat", None) is not None else 2 * op.p + op.n
    tr.counts["operators.bytes_computed"] += 8 * per_col * indices.size


def _count_solve_direct(tr, args, kwargs, result, error):
    op = args[0]
    k = np.asarray(args[1] if len(args) > 1 else kwargs["active"]).size
    tr.counts["solve_direct.k"] += k
    if k:
        tr.counts["lsq.solve_direct.flops_computed"] += op.n * k * k + k ** 3 / 3.0
    if isinstance(error, _LSQ.SingularGramError):
        tr.counts["lsq.solve_direct.singular"] += 1


def _make_count_solve_cg():
    sig = inspect.signature(inspect.unwrap(_LSQ.solve_cg))

    def count(tr, args, kwargs, result, error):
        if result is None:
            return
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tr.counts["lsq.solve_cg.iters"] += result.iterations
        tol = float(a["tol_factor"]) * float(a["noise_level"])
        if result.iterations >= a["max_iters"] and result.residual_norms[-1] > tol:
            tr.counts["solve_cg.capped"] += 1

    return count


def _count_pdasc(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["pdasc.lambda_steps"] += len(result.records)


def _count_pdas_inner(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["pdasc.inner_solves"] += len(result.active_sets)
        tr.counts["pdas_inner.fixed_point"] += result.status == "fixed_point"


def _count_baseline(name):
    def count(tr, args, kwargs, result, error):
        if result is not None:
            tr.counts[f"baselines.{name}.iters"] += len(result.records)
    return count


_COUNTERS = {
    "operators.apply": _count_apply,
    "operators.adjoint_apply": _count_apply,
    "operators.columns": _count_columns,
    "lsq.solve_direct": _count_solve_direct,
    "lsq.solve_cg": _make_count_solve_cg(),
    "pdasc.pdasc": _count_pdasc,
    "pdasc.pdas_inner": _count_pdas_inner,
    **{f"baselines.{b}": _count_baseline(b) for b in BASELINES},
}
