"""In-memory span recorder for the traced benchmark run.

A span records a name, start and end times, the index of the span that was
open when it started (its parent) and the request id the benchmark set.
Spans stay in memory and are written out when the run ends.

The recorder wraps the public entry points of each qhtk layer in the
namespaces that call them (see ``layer_entry_points``), so the program
itself is not edited.  Every oracle evaluation goes through
``DomainSpec.depth_many``, so one wrapper there counts all of them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

GEOMETRY = "geometry"
BATCH = "batch.solve_batch"
REFINE = "solver.refine_path"
RADII = "ball.directional_radii"


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None  # None while the span is open
    parent: int | None = None
    request: str | None = None
    attrs: dict = field(default_factory=dict)


def _points(args, kwargs, out):
    shape = np.shape(args[1] if len(args) > 1 else kwargs["X"])
    return {"points": 1 if len(shape) < 2 else int(shape[0])}


def _solve_batch_counts():
    from qhtk.batch import solve_batch

    sig = inspect.signature(solve_batch)

    def counts(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tol = bound.arguments["s"].refinement.gradient_tol
        gnorms = np.asarray(out[2])
        return {"paths": int(gnorms.size),
                "converged": int((gnorms <= tol).sum())}

    return counts


def _grid_counts(args, kwargs, out):
    return {"lattice_builds": int("grid_cost" in out.meta)}


def _refine_counts(args, kwargs, out):
    return {"paths": 1, "iterations": int(out.iterations),
            "converged": int(bool(out.converged))}


def _field_counts(args, kwargs, out):
    return {"nodes": int(np.isfinite(out.values).sum())}


def _radii_counts(args, kwargs, out):
    return {"directions": int(np.size(out))}


def layer_entry_points():
    """(owner object, attribute, span name, counter) for every wrapped name."""
    from qhtk import ball, geometry, renorm, solver

    batch_counts = _solve_batch_counts()
    return [
        (geometry.DomainSpec, "depth_many", GEOMETRY, _points),
        (solver, "grid_init", "solver.grid_init", _grid_counts),
        (solver, "refine_path", REFINE, _refine_counts),
        (solver, "qh_path_length", "metric.qh_path_length", None),
        (ball, "solve_batch", BATCH, batch_counts),
        (renorm, "solve_batch", BATCH, batch_counts),
        (ball, "distance_field", "ball.distance_field", _field_counts),
        (ball, "ball_contour", "ball.ball_contour", None),
        (ball, "contour_tangent_gaps", "ball.contour_tangent_gaps", None),
        (ball, "directional_radii", RADII, _radii_counts),
        (renorm, "directional_radii", RADII, _radii_counts),
        (renorm, "InducedNorm", "renorm.InducedNorm", None),
        (renorm, "triangle_check", "renorm.triangle_check", None),
    ]


class Tracer:
    """Span recorder; wrappers are installed only inside ``installed()``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._request = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, request=self._request))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name, request=None):
        """Span around the benchmark's own code; ``request`` tags nested spans."""
        saved = self._request
        if request is not None:
            self._request = request
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._request = saved

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.attrs = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, entry_points=None):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in entry_points or layer_entry_points():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; the union of their intervals, clipped
    to the parent, is subtracted once.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        ivs = sorted(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        )
        covered = 0.0
        lo = hi = None
        for a, b in ivs:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def _owner(spans, i):
    """Name of the nearest enclosing span that is not an oracle call."""
    p = spans[i].parent
    while p is not None and spans[p].name == GEOMETRY:
        p = spans[p].parent
    return spans[p].name if p is not None else None


def _ratio(num, den):
    return num / den if den else 0.0


def layer_unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("us_per_path"):
        return "us"
    if name.endswith(("_frac", "_per_path", "_per_direction")):
        return "1"
    return "count"


def layer_metrics(spans, traced_times, untraced_run_s):
    """Per-layer metrics, averaged over the traced passes.

    ``traced_times`` are the traced passes' CPU times; the tracing
    overhead is their median against ``untraced_run_s``.

    Self times of all spans, benchmark spans (``bench.*``) included, add up
    to the summed duration of the root spans.  A layer's ``points`` are the
    oracle points evaluated while it was the innermost non-oracle span.
    Counters come from calls that returned; a call that raised counts only
    in ``calls`` and time.  Ratios whose base is zero (the layer did not
    run) read 0.
    """
    passes = len(traced_times)
    selfs = self_times(spans)
    self_s, calls, attrs, points = {}, {}, {}, {}
    bench_self = batch_incl = 0.0
    radii_rounds = radii_paths = 0
    for i, s in enumerate(spans):
        if s.name.startswith("bench."):
            bench_self += selfs[i]
            continue
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        bucket = attrs.setdefault(s.name, {})
        for k, v in s.attrs.items():
            bucket[k] = bucket.get(k, 0) + v
        if s.name == GEOMETRY:
            owner = _owner(spans, i)
            points[owner] = points.get(owner, 0) + s.attrs.get("points", 0)
        elif s.name == BATCH:
            batch_incl += s.end - s.start
            if _owner(spans, i) == RADII:
                radii_rounds += 1
                radii_paths += s.attrs.get("paths", 0)

    def a(name, key):
        return attrs.get(name, {}).get(key, 0)

    def per_pass(x):
        return x / passes

    def t(name):
        return per_pass(self_s.get(name, 0.0))

    geo_points = a(GEOMETRY, "points")
    batch_paths = a(BATCH, "paths")
    solved = batch_paths + a(REFINE, "paths")
    converged = a(BATCH, "converged") + a(REFINE, "converged")
    return {
        "geometry.calls": per_pass(calls.get(GEOMETRY, 0)),
        "geometry.points": per_pass(geo_points),
        "geometry.self_s": t(GEOMETRY),
        "geometry.ns_per_point": 1e9 * _ratio(self_s.get(GEOMETRY, 0.0), geo_points),
        "geometry.points_per_path": _ratio(geo_points, solved),
        "batch.solve_batch.calls": per_pass(calls.get(BATCH, 0)),
        "batch.solve_batch.paths": per_pass(batch_paths),
        "batch.solve_batch.self_s": t(BATCH),
        "batch.solve_batch.us_per_path": 1e6 * _ratio(batch_incl, batch_paths),
        "batch.solve_batch.converged_frac": _ratio(a(BATCH, "converged"), batch_paths),
        "batch.solve_batch.points_per_path": _ratio(points.get(BATCH, 0), batch_paths),
        "solver.grid_init.calls": per_pass(calls.get("solver.grid_init", 0)),
        "solver.grid_init.lattice_builds": per_pass(a("solver.grid_init", "lattice_builds")),
        "solver.grid_init.self_s": t("solver.grid_init"),
        "solver.refine_path.calls": per_pass(calls.get(REFINE, 0)),
        "solver.refine_path.self_s": t(REFINE),
        "solver.refine_path.iterations": per_pass(a(REFINE, "iterations")),
        "solver.refine_path.points": per_pass(points.get(REFINE, 0)),
        "metric.qh_path_length.calls": per_pass(calls.get("metric.qh_path_length", 0)),
        "metric.qh_path_length.self_s": t("metric.qh_path_length"),
        "metric.qh_path_length.points": per_pass(points.get("metric.qh_path_length", 0)),
        "ball.distance_field.nodes": per_pass(a("ball.distance_field", "nodes")),
        "ball.distance_field.self_s": t("ball.distance_field"),
        "ball.ball_contour.self_s": t("ball.ball_contour"),
        "ball.contour_tangent_gaps.self_s": t("ball.contour_tangent_gaps"),
        "ball.directional_radii.directions": per_pass(a(RADII, "directions")),
        "ball.directional_radii.self_s": t(RADII),
        "ball.directional_radii.rounds": per_pass(radii_rounds),
        "ball.directional_radii.paths_per_direction": _ratio(radii_paths, a(RADII, "directions")),
        "renorm.InducedNorm.self_s": t("renorm.InducedNorm"),
        "renorm.triangle_check.self_s": t("renorm.triangle_check"),
        "bench.self_s": per_pass(bench_self),
        "trace.run_s": per_pass(sum(s.end - s.start for s in spans if s.parent is None)),
        "unconverged_frac": _ratio(solved - converged, solved),
        "trace.overhead_frac": statistics.median(traced_times) / untraced_run_s - 1.0,
    }
