"""Spans around the package's public functions, for the traced run.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (op id, name, start, end, parent) per call, on every name
the callers look up: the defining module, each ``dll`` module that
imported the function by name, and the class for methods. Private
helpers are not wrapped; their cost shows as the parent's self time.
Spans stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict

from dll import cli, decorrelate, estimator, kernel, linear, simulate, spline, transforms

SETUP_OP = -1

# (span name, owner, attribute). Owners are modules or classes.
TARGETS = (
    ("spline.fit", spline, "fit_doubly_penalized"),
    ("spline.sobolev", spline, "sobolev_penalty_matrix"),
    ("spline.design", spline.CoordinateBasis, "design"),
    ("spline.prox", spline, "two_penalty_prox"),
    ("spline.predict", spline.AdditiveFit, "predict_sum"),
    ("linear.projection", linear, "ols_projection"),
    ("linear.projection", linear, "scaled_lasso"),
    ("linear.kkt", linear, "kkt_check"),
    ("decorrelate.shift", decorrelate, "shift_general"),
    ("decorrelate.weights", decorrelate, "build_weights"),
    ("transforms", transforms.EmpiricalCDF, "fit"),
    ("transforms", transforms.EmpiricalCDF, "__call__"),
    ("transforms", transforms.KnownCDF, "__call__"),
    ("estimator.bandwidth", estimator, "default_bandwidth"),
    ("estimator.assemble", estimator, "slope_normalizer"),
    ("estimator.assemble", estimator, "variance_estimate"),
    ("estimator.assemble", estimator, "confidence_interval"),
    ("estimator.assemble", estimator, "test_zero"),
    ("estimator.pipeline", estimator, "dll_pipeline"),
    ("kernel", kernel, "kernel_weight"),
    ("kernel", kernel, "effective_sample_size"),
    ("cli.load", cli, "load_csv"),
    ("cli.emit", cli, "emit_report"),
    ("simulate.make_dataset", simulate, "make_dataset"),
)


def _count_additive(tracer: "Tracer", fit) -> None:
    tracer.count("spline.fits")
    tracer.count("spline.sweeps", fit.sweeps)
    tracer.count("spline.coords", fit.n_coordinates)
    tracer.count("spline.active", len(fit.active_set))
    tracer.count("spline.converged", int(fit.converged))


def _count_projection(tracer: "Tracer", proj) -> None:
    tracer.count("linear.projections")
    tracer.count("linear.support", proj.support_size)
    if proj.method == "scaled_lasso":
        tracer.count("linear.lasso_outer_iters", proj.iterations)


def _count_fit_flags(tracer: "Tracer", fit) -> None:
    flags = fit.diagnostics.get("flags", {})
    tracer.count("decorrelate.underflow", flags.get("shift_underflow", 0))
    tracer.count("transforms.clamped", flags.get("transform_clamped", 0))


def _count_cells(tracer: "Tracer", dataset) -> None:
    tracer.count("cli.cells", dataset.n * (dataset.p + 2))


ON_RESULT = {
    "spline.fit": _count_additive,
    "spline.prox": lambda tr, block: tr.count("spline.prox_nonzero", int(block.any())),
    "linear.projection": _count_projection,
    "estimator.pipeline": _count_fit_flags,
    "cli.load": _count_cells,
}


class Tracer:
    """Span and counter recorder for one benchmark run."""

    def __init__(self) -> None:
        self.op = SETUP_OP
        self.spans: list[tuple | None] = []  # (op, name, start, end, parent)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patched name."""
        modules = [m for k, m in sys.modules.items() if k == "dll" or k.startswith("dll.")]
        patches = []
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patches.append((owner, attr, raw, classmethod(self._wrap(name, raw.__func__))))
                continue
            wrapper = self._wrap(name, raw)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if any(v is raw for v in vars(m).values())
            ]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is raw:
                        patches.append((holder, key, raw, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        hook = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.record(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self) -> None:
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (self.op, name, start, end, parent)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.op, key)] += value

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-layer metrics, per traced op unless a ratio."""
        traced = set(ops)
        n_ops = max(len(traced), 1)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        pipeline_self = 0.0
        setup_make_s, setup_makes = 0.0, 0
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if op == SETUP_OP and name == "simulate.make_dataset":
                setup_make_s += end - start
                setup_makes += 1
            if op not in traced:
                continue
            total[name] += end - start
            calls[name] += 1
            if name == "estimator.pipeline":
                pipeline_self += end - start - child_time[i]
        counts: dict[str, float] = defaultdict(float)
        for (op, key), value in self.counts.items():
            if op in traced:
                counts[key] += value

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "spline.fit_s": total["spline.fit"] / n_ops,
            "spline.sobolev_s": total["spline.sobolev"] / n_ops,
            "spline.design_s": total["spline.design"] / n_ops,
            "spline.prox_s": total["spline.prox"] / n_ops,
            "spline.prox_calls": calls["spline.prox"] / n_ops,
            "spline.prox_nonzero_frac": ratio(counts["spline.prox_nonzero"], calls["spline.prox"]),
            "spline.sweeps": counts["spline.sweeps"] / n_ops,
            "spline.coords": counts["spline.coords"] / n_ops,
            "spline.active_frac": ratio(counts["spline.active"], counts["spline.coords"]),
            "spline.converged_frac": ratio(counts["spline.converged"], counts["spline.fits"]),
            "spline.predict_s": total["spline.predict"] / n_ops,
            "linear.projection_s": total["linear.projection"] / n_ops,
            "linear.lasso_outer_iters": counts["linear.lasso_outer_iters"] / n_ops,
            "linear.kkt_calls": calls["linear.kkt"] / n_ops,
            "linear.support_size": ratio(counts["linear.support"], counts["linear.projections"]),
            "decorrelate.shift_s": total["decorrelate.shift"] / n_ops,
            "decorrelate.shift_calls": calls["decorrelate.shift"] / n_ops,
            "decorrelate.weights_s": total["decorrelate.weights"] / n_ops,
            "decorrelate.underflow": counts["decorrelate.underflow"] / n_ops,
            "transforms.s": total["transforms"] / n_ops,
            "transforms.clamped": counts["transforms.clamped"] / n_ops,
            "estimator.bandwidth_s": total["estimator.bandwidth"] / n_ops,
            "estimator.assemble_s": total["estimator.assemble"] / n_ops,
            "estimator.self_s": pipeline_self / n_ops,
            "kernel.s": total["kernel"] / n_ops,
            "cli.load_s": total["cli.load"] / n_ops,
            "cli.load_cells_per_s": ratio(counts["cli.cells"], total["cli.load"]),
            "cli.emit_s": total["cli.emit"] / n_ops,
            "simulate.make_dataset_s": ratio(setup_make_s, setup_makes),
            "trace.op_s": total["op"] / n_ops,
        }

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "name", "start", "end", "parent"])
            for span in self.spans:
                if span is not None:
                    writer.writerow(span)
