"""Spans around the calls the benchmark makes into each fpplab layer.

Tracing is installed from outside the program: every public function of
interest is replaced, for the duration of one traced run, by a wrapper that
records a span (name, start, end, parent, run id) and counts calls and
evaluation points.  Spans stay in memory and are written out when the run
ends.  A layer's self time is its span's duration minus the part of that
interval covered by its child spans.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "bench.job"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for the root
    run_id: str


class NoTrace:
    """Hooks of an untraced run: each one returns its argument unchanged."""

    @contextmanager
    def span(self, name):
        yield

    def candidate(self, name, fn, points):
        return fn

    def generator(self, gen):
        return gen

    @contextmanager
    def installed(self):
        yield


class Tracer(NoTrace):
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.points: dict[str, int] = defaultdict(int)
        # Every label that can be recorded, with the suffix of its points
        # metric (None when the label counts no points).
        self.labels: dict[str, str | None] = {}
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self.calls[name] += 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def register(self, label, points_name=None):
        self.labels.setdefault(label, points_name)

    def wrap(self, name, fn, points=None, points_name="points"):
        """Wrapper recording one span per call.  ``name`` is a label or a
        callable of the call arguments returning one of the labels already
        registered; ``points`` returns the evaluation points of a call."""
        if not callable(name):
            self.register(name, points_name if points is not None else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if points is not None:
                self.points[label] += int(points(*args, **kwargs))
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def candidate(self, name, fn, points):
        return self.wrap(name, fn, points)

    def generator(self, gen):
        """Copy of a GeneratorCoefficients whose six callables are traced."""
        fields = ("a", "b", "P", "a_batch", "b_batch", "P_batch")
        return dataclasses.replace(gen, **{
            f: self.wrap(f"model.GeneratorCoefficients.{f}", getattr(gen, f))
            for f in fields})

    # -- installation ------------------------------------------------------

    def patch_function(self, modules, original, wrapper):
        """Replace ``original`` in every module namespace that binds it, so
        calls through names imported with ``from ... import`` are seen too."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr, label, points=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(label, raw.__func__))
        else:
            patched = self.wrap(label, raw, points)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def patch_overrides(self, base, attr, label, points=None):
        """Trace ``attr`` on ``base`` and on every subclass that overrides it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.patch_method(cls, attr, label, points)
            todo.extend(cls.__subclasses__())

    @contextmanager
    def installed(self):
        install(self)
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans]},
                      fh)


CLI_COMMANDS = ("eve_project", "affine_solve", "sim_run", "verify_martingale")


def install(tracer: Tracer):
    """Trace the public layer functions listed in the benchmark's README."""
    from fpplab import affine, cli, eve, model, sim, spectral, verify

    modules = [model, eve, affine, spectral, sim, verify, cli]

    def fn(module, name, points=None, points_name="points"):
        original = getattr(module, name)
        label = f"{module.__name__.split('.')[-1]}.{name}"
        tracer.patch_function(modules, original,
                              tracer.wrap(label, original, points, points_name))

    fn(model, "sharpe_ratio")
    fn(model, "sharpe_ratio_batch")
    fn(model, "validate")
    tracer.patch_overrides(model.CoefficientField, "batch", "model.CoefficientField.batch")

    original_gc = model.generator_coefficients
    traced_gc = tracer.wrap("model.generator_coefficients", original_gc)

    @functools.wraps(original_gc)
    def generator_coefficients(*args, **kwargs):
        return tracer.generator(traced_gc(*args, **kwargs))

    tracer.patch_function(modules, original_gc, generator_coefficients)
    for f in ("a", "b", "P", "a_batch", "b_batch", "P_batch"):
        tracer.register(f"model.GeneratorCoefficients.{f}")

    for name in ("solve_riccati", "solve_riccati_closed_form", "solve_riccati_numeric",
                 "riccati_residual", "evaluate_u_affine", "evaluate_fpp", "fpp_evaluator",
                 "optimal_portfolio_affine"):
        fn(affine, name)
    for attr in ("Phi", "Theta"):
        tracer.patch_method(affine.RiccatiSolution, attr, f"affine.RiccatiSolution.{attr}",
                            points=lambda self, t: np.size(t))

    fn(sim, "simulate", points=lambda model_, cfg, *a, **k: cfg.n_paths * cfg.n_steps,
       points_name="path_steps")
    fn(sim, "feynman_kac_estimate",
       points=lambda gen, h, t, y, cfg, *a, **k: cfg.n_paths * max(1, int(round(t / cfg.dt))),
       points_name="path_steps")
    fn(sim, "admissibility_check")
    tracer.patch_overrides(sim.Strategy, "__init__", "sim.Strategy.__init__")
    tracer.patch_overrides(sim.Strategy, "allocations", "sim.Strategy.allocations")
    tracer.patch_method(sim.PathBundle, "save", "sim.PathBundle.save")
    tracer.patch_method(sim.PathBundle, "load", "sim.PathBundle.load")

    for name in ("hjb_residual", "distortion_roundtrip", "martingale_test",
                 "optimal_portfolio_residual", "affine_u_value_grad"):
        fn(verify, name)
    # Candidates V(t, x, y) and u(t, y) are wrapped by the workloads.
    tracer.register("verify.V", "points")
    tracer.register("verify.u", "points")

    for name in ("invert_laplace_discrete", "recover_selection", "solve_eigenfunction_1d"):
        fn(spectral, name)
    tracer.patch_method(spectral.WidderFunction, "__call__", "spectral.WidderFunction.__call__")
    tracer.patch_method(spectral.EigenfunctionSelection, "psi",
                        "spectral.EigenfunctionSelection.psi")
    # One label for the constructors the workloads call directly.
    for cls in (spectral.SpectralMeasure, spectral.ExpMixEigenfunction,
                spectral.EigenfunctionSelection, spectral.WidderFunction):
        tracer.patch_method(cls, "__init__", "spectral.__init__")

    fn(eve, "project_eve")
    fn(eve, "select_p")

    for command in CLI_COMMANDS:
        tracer.register(f"cli.{command}")
    tracer.patch_function(modules, cli.main, tracer.wrap(
        lambda argv: "cli." + "_".join(argv[:2]).replace("-", "_"), cli.main))


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children's
    intervals, each child clipped to the parent's interval."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def self_by_name(spans) -> dict[str, float]:
    totals = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] += own
    return dict(totals)


def layer_metrics(tracer: Tracer) -> dict:
    """Calls, points and self time in seconds of every registered label, the
    traced root span's duration and the benchmark's own time in it.  Self
    times partition the root span, so the layers' and the benchmark's own
    add up to ``trace.root_s`` by construction."""
    selfs = self_by_name(tracer.spans)
    out = {"trace.root_s": sum(s.end - s.start for s in tracer.spans if s.name == ROOT),
           "trace.spans": len(tracer.spans),
           f"{ROOT}.self_s": selfs.get(ROOT, 0.0)}
    for label, points_name in tracer.labels.items():
        out[f"{label}.calls"] = tracer.calls.get(label, 0)
        out[f"{label}.self_s"] = selfs.get(label, 0.0)
        if points_name:
            out[f"{label}.{points_name}"] = tracer.points.get(label, 0)
    return out
