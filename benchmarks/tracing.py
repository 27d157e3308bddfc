"""Span tracing around calls into chain_elastica's public functions.

The wrappers live here, in the benchmark, not in the library: `Tracer.install`
swaps them into the library's modules and classes, `Tracer.restore` puts the
originals back. Each wrapped call records one span (name, start, end, parent
span, cell) in memory; `Tracer.metrics` turns the spans into the per-layer
metrics and `Tracer.write_spans` writes them out once the run is over.

A layer's `_s` metric is its self time: the durations of its spans minus the
time their wrapped child spans cover. Counts are exact.
"""

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "chain_elastica"

# Cell sizes of the default eps list 2^-3 .. 2^-10, for the scaling table.
CELL_SIZES = tuple(2 ** k for k in range(3, 11))

# Metrics split by cell size N as `<metric>.N<N>`.
SCALED_METRICS = ("optimize.newton_self_s", "atomistic.hessian_s",
                  "fem.hessian_s", "fem.certify_s")


def _points(arg_index):
    """Counter: number of evaluation points in positional argument i."""
    def count(args, kwargs, result):
        x = args[arg_index] if len(args) > arg_index else kwargs["x"]
        return getattr(x, "size", 1)
    return count


def _one(args, kwargs, result):
    return 1


def _quadrature_points(args, kwargs, result):
    N = args[1] if len(args) > 1 else kwargs["N"]
    npoints = args[2] if len(args) > 2 else kwargs.get("npoints", 5)
    return 2 * N * npoints


def _sweep_cell(args, kwargs):
    _cfg, eps, model_key = args[:3]
    return (model_key, round(1.0 / eps))


def _consistency_cell(args, kwargs):
    system, model = args[:2]
    return (model.key, system.N)


_DENSITY_METHODS = ("density", "density0", "density_grad", "density_hess",
                    "domain_margin")
_ANALYSIS_FUNCTIONS = ("stability_constants", "find_negative_mode",
                       "atomistic_symbol", "cb_symbol", "hoc_taylor_symbol",
                       "direct_symbol")

# (module, attribute, time metric, count metric, counter, cell)
# An attribute "Class.method" wraps the method on that class; "*.method"
# wraps it on every class of the module that defines it. Problem callbacks
# built by `fem.assemble` and Newton's iteration counts are handled in
# `Tracer._wrap_assemble` and `Tracer._wrap_newton`.
TARGETS = (
    [("cli", "main", "harness.self_s", None, None, None),
     ("harness", "solve_cell", "harness.self_s", None, None, _sweep_cell),
     ("atomistic", "AtomisticSystem.hessian", "atomistic.hessian_s",
      "atomistic.hessian_calls", _one, None),
     ("atomistic", "AtomisticSystem.gradient", "atomistic.grad_energy_s",
      None, None, None),
     ("atomistic", "AtomisticSystem.energy", "atomistic.grad_energy_s",
      None, None, None),
     ("atomistic", "AtomisticSystem.energy_above_homogeneous",
      "atomistic.grad_energy_s", None, None, None),
     ("atomistic", "atomistic_stress", "atomistic.stress_s",
      "atomistic.stress_points", _points(3), None),
     ("fem", "solve_continuum", "fem.certify_s", None, None, None),
     ("fem", "grad_l2_distance", "fem.measure_s", None, None, None),
     ("fem", "energy_gap", "fem.measure_s", None, None, None),
     ("fem", "FemField.eval", "splines.eval_s", "splines.eval_points",
      _points(1), None),
     ("continuum", "*.stress", "continuum.stress_s", None, None, None),
     ("continuum", "consistency_residual", "continuum.stress_s", None, None,
      _consistency_cell),
     ("splines", "measurement_interpolant", "splines.interp_build_s", None,
      None, None),
     ("splines", "KernelField.eval", "splines.eval_s", "splines.eval_points",
      _points(1), None),
     ("splines", "localization_weight", "splines.weight_s",
      "splines.weight_points", _points(3), None),
     ("quadrature", "composite_integral", "quadrature.self_s",
      "quadrature.points", _quadrature_points, None),
     ("potentials", "PairPotential.derivative", "potentials.derivative_s",
      "potentials.derivative_calls", _one, None)]
    + [("continuum", "*." + m, "continuum.density_s", None, None, None)
       for m in _DENSITY_METHODS]
    + [("analysis", f, "analysis.s", None, None, None)
       for f in _ANALYSIS_FUNCTIONS]
)

TIME_METRICS = ("optimize.newton_self_s", "atomistic.hessian_s",
                "atomistic.grad_energy_s", "atomistic.stress_s",
                "fem.hessian_s", "fem.grad_obj_s", "fem.certify_s",
                "fem.measure_s", "continuum.density_s", "continuum.stress_s",
                "splines.interp_build_s", "splines.eval_s", "splines.weight_s",
                "quadrature.self_s", "potentials.derivative_s", "analysis.s",
                "harness.self_s")
COUNT_METRICS = ("optimize.newton_iters", "atomistic.hessian_calls",
                 "atomistic.stress_points", "fem.hessian_calls",
                 "splines.eval_points", "splines.weight_points",
                 "quadrature.points", "potentials.derivative_calls")


def _module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


def unit(metric):
    """Unit of a per-layer metric."""
    if metric == "optimize.objective_evals_per_iter":
        return "1"
    return "count" if metric in COUNT_METRICS else "s"


class Tracer:
    """Holds the spans of one traced process and the patches that make them."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, cell]
        self.metric_of = {}      # span name -> time metric
        self.counts = defaultdict(int)
        self._stack = []
        self._cell = None
        self._patches = []       # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name, metric, count_metric=None, counter=None,
             cell=None):
        """`fn` with a span around every call."""
        self.metric_of[name] = metric
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer_cell = self._cell
            if cell is not None:
                self._cell = cell(args, kwargs)
            record = [name, 0.0, 0.0, parent, self._cell]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                self._cell = outer_cell
            if counter is not None and not (
                    parent >= 0 and self.metric_of[spans[parent][0]] == metric):
                # nested calls of one layer (FemField.eval -> KernelField.eval)
                # count their points once
                self.counts[count_metric] += counter(args, kwargs, result)
            return result

        return traced

    def _wrap_assemble(self, fn):
        """fem.assemble returns closures; trace them as FEM problem callbacks."""
        wrap = self.wrap

        @functools.wraps(fn)
        def assemble(*args, **kwargs):
            prob = fn(*args, **kwargs)
            prob.objective = wrap(prob.objective, "fem.objective",
                                  "fem.grad_obj_s")
            prob.gradient = wrap(prob.gradient, "fem.gradient",
                                 "fem.grad_obj_s")
            prob.hessian = wrap(prob.hessian, "fem.hessian", "fem.hessian_s",
                                "fem.hessian_calls", _one)
            return prob

        return wrap(assemble, "fem.assemble", "fem.grad_obj_s")

    def _wrap_newton(self, fn):
        """newton_minimize with its iterations and objective evaluations
        counted; the caller's problem object is left untouched."""
        counts = self.counts

        def counting(objective):
            def f(x):
                counts["optimize.objective_evals"] += 1
                return objective(x)
            return f

        @functools.wraps(fn)
        def newton(problem, x0):
            res = fn(dataclasses.replace(
                problem, objective=counting(problem.objective)), x0)
            counts["optimize.newton_iters"] += res.iterations
            return res

        return self.wrap(newton, "optimize.newton_minimize",
                         "optimize.newton_self_s")

    # -- install / restore ------------------------------------------------
    def _patch_function(self, original, replacement):
        """Rebind every module-level name in the package that refers to
        `original` (modules import each other's functions by name)."""
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        for modname, attr, metric, cmetric, counter, cell in TARGETS:
            module = _module(modname)
            owner, _, meth = attr.rpartition(".")
            if not owner:
                fn = getattr(module, attr)
                self._patch_function(fn, self.wrap(
                    fn, f"{modname}.{attr}", metric, cmetric, counter, cell))
                continue
            classes = ([c for c in vars(module).values()
                        if isinstance(c, type) and c.__module__ == module.__name__]
                       if owner == "*" else [getattr(module, owner)])
            for cls in classes:
                if meth in cls.__dict__:
                    name = f"{modname}.{cls.__name__}.{meth}"
                    self._patch_method(cls, meth, self.wrap(
                        cls.__dict__[meth], name, metric, cmetric, counter,
                        cell))
        fem, optimize = _module("fem"), _module("optimize")
        self._patch_function(fem.assemble, self._wrap_assemble(fem.assemble))
        self._patch_function(optimize.newton_minimize,
                             self._wrap_newton(optimize.newton_minimize))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def metrics(self):
        """Per-layer metrics from the recorded spans and counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, cell in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {m: 0.0 for m in TIME_METRICS}
        for m in SCALED_METRICS:
            out.update({f"{m}.N{n}": 0.0 for n in CELL_SIZES})
        for i, (name, start, end, parent, cell) in enumerate(spans):
            metric = self.metric_of[name]
            self_time = end - start - child_time[i]
            out[metric] += self_time
            if metric in SCALED_METRICS and cell is not None:
                key = f"{metric}.N{cell[1]}"
                out[key] = out.get(key, 0.0) + self_time
        for m in COUNT_METRICS:
            out[m] = self.counts[m]
        iters = self.counts["optimize.newton_iters"]
        out["optimize.objective_evals_per_iter"] = (
            self.counts["optimize.objective_evals"] / iters if iters else 0.0)
        return out

    def write_spans(self, path):
        """One JSON object per span: name, start, end (s, perf_counter),
        parent (index into the file, -1 at a root) and cell [model, N]."""
        with open(path, "w") as fh:
            for name, start, end, parent, cell in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "cell": list(cell) if cell else None})
                         + "\n")
