"""Spans around grflab's public functions, for the traced run only.

``Tracer.install`` replaces every public function of every grflab module at
each of its import sites, and every public method (plus ``__init__``, or
``__post_init__`` for dataclasses) of every grflab class, with a wrapper
that records a span: name, parent, start, end, the exception type if it
raised, and one number of extra detail for a few entry points.
``Tracer.remove`` puts the originals back. Spans stay in memory until the
harness writes them out.

The extra detail is worked out with the tracer paused: wrapped functions it
calls record no span, and the span clock stops while it runs, so no span is
charged for the tracer's own work. Span times are read from that clock.

``layer_metrics`` derives every per-layer number from the spans alone. A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

import workloads  # noqa: F401  (imports grflab from the checkout)
from grflab.spectrum import SchrodingerOperator

# Layers whose self time counts as covered by the trace. experiments is the
# pipeline glue the workloads call; its self time is not a layer's work.
LAYERS = ("lattice", "geometry", "spectrum", "flow", "diffeo", "lojasiewicz",
          "perturbations")
OP_SPAN = "harness.op"

_MARK = "_perfbench_span"
_SOLVE_SIGNATURE = inspect.signature(SchrodingerOperator.solve_shifted)

NAME, PARENT, START, END, ERROR, EXTRA = range(6)


def _grflab_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "grflab" or key.startswith("grflab."))]


def _is_traced_method(cls, name, value):
    # a dataclass's generated __init__ only assigns fields; its __post_init__
    # holds the validation work
    hooks = ("__post_init__",) if dataclasses.is_dataclass(cls) else ("__init__",)
    return (isinstance(value, types.FunctionType)
            and (not name.startswith("_") or name in hooks))


def _diff_points(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["values"]))


def _stage_field_bytes(args, kwargs, result):
    series = args[0] if args else kwargs["x_series"]
    return sum(x.values.nbytes for _, _, stages in series for x in stages)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._paused = False
        self._excluded_s = 0.0

    # -- spans -------------------------------------------------------------

    def _now(self):
        """The span clock: perf_counter less the time spent paused."""
        return time.perf_counter() - self._excluded_s

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           self._now(), None, None, None])
        self._stack.append(index)
        return index

    def _close(self, index, error=None):
        span = self.spans[index]
        span[END] = self._now()
        span[ERROR] = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A harness-level span, e.g. around one operation."""
        index = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(index, type(exc).__name__)
            raise
        self._close(index)

    # -- extra detail ------------------------------------------------------

    def _paused_call(self, fn, *args):
        """fn(*args) with no spans recorded and the span clock stopped."""
        self._paused = True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._excluded_s += time.perf_counter() - t0
            self._paused = False

    @staticmethod
    def _short_exit(args, kwargs, x):
        """1 when the CG solve returned above its requested rtol.

        The true residual is recomputed exactly as solve_shifted measures it.
        """
        bound = _SOLVE_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        op = bound.arguments["self"]
        sq = op.g.sqrt_det_values
        b = sq * bound.arguments["rhs"]
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return 0
        sigma = bound.arguments["sigma"]
        r = b - sq * (op.apply_values(x) - sigma * x)
        return int(float(np.linalg.norm(r)) > bound.arguments["rtol"] * b_norm)

    def _detail(self, name):
        """The extra-detail function of an entry point, or None."""
        return {
            "lattice.diff_values": _diff_points,
            "spectrum.SchrodingerOperator.solve_shifted": self._short_exit,
            "diffeo.diffeo_flow": _stage_field_bytes,
        }.get(name)

    # -- installing --------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        detail = self._detail(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, type(exc).__name__)
                raise
            tracer._close(index)
            if detail is not None:
                tracer.spans[index][EXTRA] = tracer._paused_call(
                    detail, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for mod in _grflab_modules():
            for attr, value in list(vars(mod).items()):
                if (isinstance(value, types.FunctionType)
                        and not attr.startswith("_")
                        and value.__module__.startswith("grflab.")):
                    if value not in wrappers:
                        layer = value.__module__.rsplit(".", 1)[-1]
                        wrappers[value] = self._wrap(
                            value, f"{layer}.{value.__name__}")
                    self._patch(mod, attr, wrappers[value])
                elif (isinstance(value, type)
                      and value.__module__ == mod.__name__
                      and not issubclass(value, BaseException)):
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    for meth, fn in list(vars(value).items()):
                        if _is_traced_method(value, meth, fn):
                            self._patch(value, meth, self._wrap(
                                fn, f"{layer}.{value.__name__}.{meth}"))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftovers():
        """Names of grflab attributes that are still tracing wrappers."""
        found = []
        for mod in _grflab_modules():
            for attr, value in vars(mod).items():
                if hasattr(value, _MARK):
                    found.append(f"{mod.__name__}.{attr}")
                elif isinstance(value, type):
                    found.extend(f"{mod.__name__}.{attr}.{meth}"
                                 for meth, fn in vars(value).items()
                                 if hasattr(fn, _MARK))
        return found

    def write(self, path):
        """All spans as gzipped JSON lines, in start order."""
        with gzip.open(path, "wt") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "error": s[ERROR],
                    "extra": s[EXTRA]}) + "\n")


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

CHRISTOFFEL = ("geometry.christoffel_values", "geometry.christoffel")
CURVATURE = ("geometry.ricci_values", "geometry.ricci",
             "geometry.scalar_curvature", "geometry.riemann_values")
FORMS = ("geometry.exterior_derivative", "geometry.codifferential",
         "geometry.hodge_laplacian", "geometry.interior_product",
         "geometry.h_squared", "geometry.form_norm_sq")
GAUGE = ("geometry.deturck_vector", "geometry.lie_derivative_metric")
FIELD_NEW = ("lattice.TensorField.__post_init__",
             "lattice.ScalarField.__post_init__")
INNER = ("lattice.weighted_inner", "lattice.pointwise_inner_values")
METRIC_NEW = "geometry.MetricField.__init__"
EIG = "spectrum.lowest_eigenpair"
SOLVE = "spectrum.SchrodingerOperator.solve_shifted"
APPLY = "spectrum.SchrodingerOperator.apply_values"
OP_INIT = "spectrum.SchrodingerOperator.__init__"
RUN_FLOW = "flow.run_flow"
PERTURBATIONS = ("perturbations.random_metric_perturbation",
                 "perturbations.random_form_perturbation")

# (name, unit) of every metric layer_metrics returns, in output order
LAYER_METRICS = (
    ("lattice.diff_calls", "count"), ("lattice.diff_s", "s"),
    ("lattice.diff_mpts_per_s", "Mpts/s"), ("lattice.field_new_calls", "count"),
    ("lattice.field_new_s", "s"), ("lattice.inner_s", "s"),
    ("lattice.self_s", "s"),
    ("geometry.metric_new_calls", "count"), ("geometry.metric_new_s", "s"),
    ("geometry.positivity_rejects", "count"), ("geometry.christoffel_s", "s"),
    ("geometry.curvature_s", "s"),
    ("geometry.curvature_calls_per_metric", "ratio"),
    ("geometry.forms_s", "s"), ("geometry.gauge_s", "s"),
    ("geometry.self_s", "s"),
    ("spectrum.eig_s", "s"), ("spectrum.eig_calls", "count"),
    ("spectrum.eig_stage_calls", "count"), ("spectrum.eig_side_calls", "count"),
    ("spectrum.eig_ms_p50", "ms"),
    ("spectrum.eig_ms_tail", "ms"), ("spectrum.eig_tail_pct", "%"),
    ("spectrum.outer_iters", "count"), ("spectrum.cg_iters", "count"),
    ("spectrum.cg_short_exits", "count"), ("spectrum.eig_failures", "count"),
    ("spectrum.op_setup_s", "s"), ("spectrum.apply_s", "s"),
    ("spectrum.cg_s", "s"), ("spectrum.self_s", "s"),
    ("flow.deturck_rhs_s", "s"), ("flow.grf_rhs_s", "s"),
    ("flow.mu_rhs_s", "s"), ("flow.rk4_accept_ratio", "ratio"),
    ("flow.side_eig_s", "s"), ("flow.run_self_s", "s"),
    ("flow.csv_write_ms", "ms"), ("flow.self_s", "s"),
    ("diffeo.flow_s", "s"), ("diffeo.pullback_s", "s"),
    ("diffeo.stage_fields_mb", "MB"), ("diffeo.self_s", "s"),
    ("lojasiewicz.fit_ms", "ms"), ("perturbations.init_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
)


def tail_percentile(n_calls):
    """Highest listed percentile with ten calls beyond it, else the median."""
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n_calls * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best


def layer_metrics(spans, untraced_s, traced_s):
    """Per-layer metrics of one traced cycle.

    untraced_s and traced_s are the wall times of the same cycle run without
    and with the tracer; their ratio is the tracing overhead, the tracer's
    paused work included. Coverage is the share of the operations' span time
    that is self time of a grflab layer.
    Inclusive times (``*_s`` of one entry point) are summed over the cycle;
    ``*_ms`` entries are per-call medians; ``<layer>.self_s`` sums the self
    time of the layer's spans. Stage eigensolves are those called by
    mu_gradient_flow_rhs, side eigensolves those called by run_flow (its
    diagnostics rows). flow.rk4_accept_ratio is the share of metrics built
    inside run_flow, the RK4 stage and step states, that passed positivity.
    """
    n = len(spans)
    duration = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(n)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    self_time = duration - child
    by_name = defaultdict(list)
    for index, s in enumerate(spans):
        by_name[s[NAME]].append(index)

    def calls(*names):
        return sum(len(by_name[name]) for name in names)

    def inclusive(*names):
        return float(sum(duration[by_name[name]].sum() for name in names))

    def own(*names):
        return float(sum(self_time[by_name[name]].sum() for name in names))

    def children_of(parent_name, name):
        return [i for i in by_name[name] if spans[i][PARENT] >= 0
                and spans[spans[i][PARENT]][NAME] == parent_name]

    def median_ms(name):
        return float(np.median(duration[by_name[name]]) * 1e3) if by_name[name] else 0.0

    layer_self = defaultdict(float)
    for s, t in zip(spans, self_time):
        layer_self[s[NAME].split(".", 1)[0]] += t

    diff_s = inclusive("lattice.diff_values")
    diff_pts = sum(spans[i][EXTRA] or 0 for i in by_name["lattice.diff_values"])
    metric_spans = by_name[METRIC_NEW]
    rejects = [i for i in metric_spans if spans[i][ERROR] == "PositivityError"]
    flow_metrics = children_of(RUN_FLOW, METRIC_NEW)
    flow_rejects = [i for i in flow_metrics if spans[i][ERROR] == "PositivityError"]

    eig = by_name[EIG]
    eig_ms = duration[eig] * 1e3
    tail_pct = tail_percentile(len(eig))
    side = children_of(RUN_FLOW, EIG)
    stage = children_of("flow.mu_gradient_flow_rhs", EIG)

    op_total = inclusive(OP_SPAN)
    covered = sum(layer_self[layer] for layer in LAYERS)

    values = {
        "lattice.diff_calls": calls("lattice.diff_values"),
        "lattice.diff_s": diff_s,
        "lattice.diff_mpts_per_s": diff_pts / diff_s / 1e6 if diff_s > 0 else 0.0,
        "lattice.field_new_calls": calls(*FIELD_NEW),
        "lattice.field_new_s": own(*FIELD_NEW),
        "lattice.inner_s": own(*INNER),
        "lattice.self_s": layer_self["lattice"],
        "geometry.metric_new_calls": len(metric_spans),
        "geometry.metric_new_s": inclusive(METRIC_NEW),
        "geometry.positivity_rejects": len(rejects),
        "geometry.christoffel_s": own(*CHRISTOFFEL),
        "geometry.curvature_s": own(*CURVATURE),
        "geometry.curvature_calls_per_metric": (
            calls(*CURVATURE) / len(metric_spans) if metric_spans else 0.0),
        "geometry.forms_s": own(*FORMS),
        "geometry.gauge_s": own(*GAUGE),
        "geometry.self_s": layer_self["geometry"],
        "spectrum.eig_s": inclusive(EIG),
        "spectrum.eig_calls": len(eig),
        "spectrum.eig_stage_calls": len(stage),
        "spectrum.eig_side_calls": len(side),
        "spectrum.eig_ms_p50": float(np.percentile(eig_ms, 50.0)) if eig else 0.0,
        "spectrum.eig_ms_tail": float(np.percentile(eig_ms, tail_pct)) if eig else 0.0,
        "spectrum.eig_tail_pct": tail_pct,
        "spectrum.outer_iters": len(children_of(EIG, SOLVE)),
        "spectrum.cg_iters": len(children_of(SOLVE, APPLY)),
        "spectrum.cg_short_exits": sum(spans[i][EXTRA] or 0 for i in by_name[SOLVE]),
        "spectrum.eig_failures": sum(1 for i in eig if spans[i][ERROR]),
        "spectrum.op_setup_s": inclusive(OP_INIT),
        "spectrum.apply_s": inclusive(APPLY),
        "spectrum.cg_s": inclusive(SOLVE),
        "spectrum.self_s": layer_self["spectrum"],
        "flow.deturck_rhs_s": inclusive("flow.deturck_rhs"),
        "flow.grf_rhs_s": inclusive("flow.grf_rhs"),
        "flow.mu_rhs_s": inclusive("flow.mu_gradient_flow_rhs"),
        "flow.rk4_accept_ratio": (
            1.0 - len(flow_rejects) / len(flow_metrics) if flow_metrics else 1.0),
        "flow.side_eig_s": float(duration[side].sum()),
        "flow.run_self_s": own(RUN_FLOW),
        "flow.csv_write_ms": median_ms("flow.write_trajectory_csv"),
        "flow.self_s": layer_self["flow"],
        "diffeo.flow_s": inclusive("diffeo.diffeo_flow"),
        "diffeo.pullback_s": inclusive("diffeo.pullback"),
        "diffeo.stage_fields_mb": (
            max((spans[i][EXTRA] for i in by_name["diffeo.diffeo_flow"]),
                default=0) / 1e6),
        "diffeo.self_s": layer_self["diffeo"],
        "lojasiewicz.fit_ms": median_ms("lojasiewicz.lojasiewicz_estimate"),
        "perturbations.init_s": inclusive(*PERTURBATIONS),
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s > 0 else 0.0,
        "trace.coverage": covered / op_total if op_total > 0 else 0.0,
    }
    return {name: float(values[name]) for name, _ in LAYER_METRICS}
