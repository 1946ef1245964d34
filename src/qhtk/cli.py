"""Command-line interface: solves, ball extraction, geometry probes, verdicts.

Each command computes a ``CommandResult``; ``run`` writes its result
document (JSON, optionally CSV/SVG) plus a run manifest into the output
directory, and exits 0 on pass, 1 on a failed verdict, 2 on an execution
error, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field as dfield

import numpy as np

from . import __version__, cases
from .ball import (
    ResolutionError,
    _qh_arclength_point,
    _worker_count,
    ball_contour,
    contour_tangent_gaps,
    cusp_free_check,
    directional_radii,
    distance_field,
    orthogonality_ratio,
    smoothness_profile,
)
from .geometry import InvalidInputError, Polyline, QHError
from .io import (
    RunManifest,
    SchemaError,
    domain_to_doc,
    resolve_domain,
    spec_hash,
    write_atomic,
    write_csv,
    write_json,
    write_manifest,
)
from .renorm import InducedNorm, hausdorff_convergence, modulus_estimate, triangle_check
from .solver import DEFAULT_SOLVER, RefinementConfig, SolverConfig, qh_distance
from .svg import render_svg

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # accept coordinate vectors like "-1,0" as values, not flags
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _numbers(text):
    """Comma-separated finite numbers, for argparse ``type=``."""
    try:
        v = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not np.isfinite(v).all():
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return v


def _positive(text):
    """One finite positive number, for argparse ``type=``: a level or a resolution."""
    v = _numbers(text)
    if v.size != 1 or not v[0] > 0.0:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return float(v[0])


def _direction(text):
    v = _numbers(text)
    if not v.any():
        raise argparse.ArgumentTypeError("direction must be nonzero")
    return v


def _window(text):
    v = _numbers(text)
    if v.size != 4:
        raise argparse.ArgumentTypeError(f"expected x0,x1,y0,y1, got {text!r}")
    x0, x1, y0, y1 = v.tolist()
    return ((x0, x1), (y0, y1))


def _solver_config(args):
    return SolverConfig(
        grid_resolution=args.resolution,
        vertex_budget=args.budget,
        refinement=RefinementConfig(
            max_iterations=args.max_iterations,
            gradient_tol=args.gradient_tol,
        ),
    )


def _clipped_window(domain, center, reach):
    """The planar window center +- reach, clipped 1e-6 inside the domain's hint."""
    lo_hint, hi_hint = domain.window_hint()
    return tuple(
        (
            center[j] - reach if lo_hint[j] is None else max(center[j] - reach, lo_hint[j] + 1e-6),
            center[j] + reach if hi_hint[j] is None else min(center[j] + reach, hi_hint[j] - 1e-6),
        )
        for j in range(2)
    )


@dataclass
class CommandResult:
    """What one command computed, for ``run`` to write and report."""

    name: str  # file stem: <name>.json, <name>.svg and <name>-manifest.json
    doc: dict  # the result document; ``run`` adds the resolved domain
    summary: str  # printed on stdout
    passed: bool = True
    tables: dict = dfield(default_factory=dict)  # CSV file name -> (header, rows)
    svg: str | None = None


def run(args):
    """Run the parsed command: resolve ``--domain``, write the result files
    and the manifest of every parsed argument, and map the verdict to an
    exit code."""
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain) if "domain" in args else None
    res = args.handler(args, domain)
    doc = res.doc if domain is None else {"domain": domain_to_doc(domain), **res.doc}
    outputs = [os.path.join(args.out, f"{res.name}.json")]
    write_json(outputs[0], doc)
    for fname, (header, rows) in res.tables.items():
        outputs.append(os.path.join(args.out, fname))
        write_csv(outputs[-1], header, rows)
    if res.svg is not None:
        outputs.append(os.path.join(args.out, f"{res.name}.svg"))
        write_atomic(outputs[-1], res.svg)
    print(res.summary)
    write_manifest(os.path.join(args.out, f"{res.name}-manifest.json"), RunManifest(
        command=args.command,
        args={k: v for k, v in vars(args).items() if k != "handler"},
        version=__version__,
        input_hash="" if domain is None else spec_hash(domain),
        outputs=sorted(outputs),
        wall_time_s=round(time.perf_counter() - t0, 3),
        threads=_worker_count(),
    ))
    return EXIT_PASS if res.passed else EXIT_FAIL


def cmd_dist(args, domain):
    """``dist`` and ``geodesic``: one solve; ``geodesic`` also writes the path."""
    res = qh_distance(domain, args.frm, args.to, _solver_config(args))
    out = CommandResult(args.command, {
        "from": args.frm.tolist(),
        "to": args.to.tolist(),
        "qh_distance": res.qh_length,
        "lower_bound_gap": res.lower_bound_gap,
        "converged": res.converged,
        "iterations": res.iterations,
    }, f"qh_distance = {res.qh_length:.12g}  (converged={res.converged})", res.converged)
    if args.command == "geodesic" and res.path is not None:
        V = res.path.vertices
        dim = V.shape[1]
        out.tables[f"{out.name}-path.csv"] = ([f"x{i+1}" for i in range(dim)], V.tolist())
        if args.svg and dim == 2:
            pad = 0.25 * max(float(np.ptp(V, axis=0).max()), 1.0)
            window = ((V[:, 0].min() - pad, V[:, 0].max() + pad),
                      (V[:, 1].min() - pad, V[:, 1].max() + pad))
            out.svg = render_svg(domain, window, polylines=[res.path],
                                 labels=[f"k = {res.qh_length:.6f}"])
    return out


def cmd_ball(args, domain):
    center = args.center
    window = args.window
    if window is None:
        # the ball can reach d(c)(e^r - 1) exactly (half-plane, punctured
        # plane), so two grid cells of margin close its contour
        reach = (domain.boundary_distance(center) * float(np.expm1(args.r))
                 + 2.0 / args.field_resolution)
        window = _clipped_window(domain, center, reach)
    field = distance_field(domain, center, window, args.field_resolution)
    contour = ball_contour(field, args.r)
    rows = [[li, v[0], v[1]] for li, L in enumerate(contour.loops) for v in L]
    svg = None
    if args.svg:
        svg = render_svg(domain, window, contours=[contour], points=[center],
                         labels=[f"r = {args.r}"])
    return CommandResult("ball", {
        "center": center.tolist(),
        "r": args.r,
        "grid_h": field.h,
        "loops": [L.tolist() for L in contour.loops],
        "max_tangent_gap": float(contour_tangent_gaps(contour).max()),
    }, f"contour loops: {len(contour.loops)}  grid h = {field.h:.4g}",
        tables={"ball-contour.csv": (["loop", "x1", "x2"], rows)}, svg=svg)


def cmd_smoothcheck(args, domain):
    rep = smoothness_profile(domain, args.center, args.r, probes=args.probes)
    pp = rep.per_probe()
    ratio = pp[:, -1] / pp[:, 0]
    decreasing = bool((np.diff(pp, axis=1) < 0).all())
    passed = decreasing and bool((ratio < args.threshold).all())
    rows = [[i, h, pp[i, j]] for i in range(pp.shape[0]) for j, h in enumerate(rep.h_schedule)]
    return CommandResult("smoothcheck", {
        "center": args.center.tolist(), "r": args.r,
        "h_schedule": list(rep.h_schedule),
        "probes": rep.probes.tolist(),
        "per_probe_ratios": pp.tolist(),
        "final_over_initial": ratio.tolist(),
        "decreasing": decreasing,
        "passed": passed,
    }, f"smoothness: decreasing={decreasing} max final/initial={ratio.max():.4f}", passed,
        tables={"smoothcheck.csv": (["probe", "h_fraction", "ratio"], rows)})


def cmd_ortho(args, domain):
    center = args.center
    u = args.direction / np.linalg.norm(args.direction)
    rad = directional_radii(domain, center, u[None, :], args.r)[0]
    x = center + rad * u
    res = qh_distance(domain, center, x)
    # orthogonality_ratio's contour certificate, checked before the field is solved
    h = 1.0 / args.field_resolution
    min_sep = min(float(np.linalg.norm(_qh_arclength_point(domain, res.path, t) - x))
                  for t in args.tschedule)
    if h > min_sep / 10.0 + 1e-12:
        raise ResolutionError(
            f"contour spacing {h} too coarse for separation {min_sep}: "
            f"--field-resolution {math.ceil(1.0 / (min_sep / 10.0 + 1e-12))} would pass")
    reach = domain.boundary_distance(center) * float(np.expm1(args.r)) * 1.05
    window = _clipped_window(domain, center, reach)
    field = distance_field(domain, center, window, args.field_resolution)
    contour = ball_contour(field, args.r)
    ratios = orthogonality_ratio(domain, x, args.tschedule, contour, geodesic=res.path)
    passed = bool((np.abs(ratios[-2:] - 1.0) <= 0.05).all())
    return CommandResult("ortho", {
        "center": center.tolist(), "direction": u.tolist(), "r": args.r,
        "t_schedule": args.tschedule, "ratios": ratios.tolist(), "passed": passed,
    }, f"orthogonality ratios: {np.round(ratios, 4).tolist()}", passed)


def cmd_cusp(args, domain):
    x = args.x
    u = args.direction / np.linalg.norm(args.direction)
    rad = directional_radii(domain, x, u[None, :], args.r)[0]
    y = x + rad * u
    report = cusp_free_check(domain, x, args.r, y, z_schedule=args.z,
                             samples=args.samples, rng_seed=args.seed)
    viol = sum(e["violations"] for e in report)
    return CommandResult("cusp", {
        "x": x.tolist(), "y": y.tolist(), "r": args.r, "report": report, "violations": viol,
    }, f"cusp check: {viol} violations over {sum(e['samples'] for e in report)} samples",
        viol == 0)


def cmd_renorm(args, domain):
    out = CommandResult("renorm", {"what": args.what}, "")
    doc = out.doc
    if args.what == "hausdorff":
        series = hausdorff_convergence(domain, args.radii, directions=args.directions)
        doc["radii"] = args.radii
        doc["d_H"] = series.tolist()
        out.passed = bool((np.diff(series) < 0).all())
        out.tables["renorm-hausdorff.csv"] = (["r", "d_H"],
                                              list(zip(args.radii, series.tolist())))
        out.summary = f"d_H series: {np.round(series, 6).tolist()}"
    else:
        norm = InducedNorm(domain, args.r, rng_seed=args.seed)
        if args.what == "minkowski":
            th = np.linspace(0, 2 * np.pi, args.directions, endpoint=False)
            X = np.stack([np.cos(th), np.sin(th)], axis=1) * args.scale
            M = norm.eval_many(X)
            doc["points"] = X.tolist()
            doc["M"] = M.tolist()
            out.tables["renorm-minkowski.csv"] = (["x1", "x2", "M"],
                                                  [[x[0], x[1], m] for x, m in zip(X, M)])
            out.summary = f"M evaluated on {len(X)} directions"
        elif args.what == "triangle":
            viol = triangle_check(norm, samples=args.samples, rng_seed=args.seed)
            doc["violations"] = viol
            doc["samples"] = args.samples
            out.passed = len(viol) == 0
            out.summary = f"triangle check: {len(viol)} violations / {args.samples} pairs"
        elif args.what == "modulus":
            est = modulus_estimate(norm, args.kind, args.taus,
                                   sample_budget=args.samples, rng_seed=args.seed)
            doc["kind"] = est.kind
            doc["taus"] = est.taus.tolist()
            doc["values"] = est.values.tolist()
            out.tables["renorm-modulus.csv"] = (["tau", est.kind],
                                                list(zip(est.taus, est.values)))
            out.summary = f"{est.kind} modulus: {np.round(est.values, 6).tolist()}"
    doc["passed"] = out.passed
    return out


def _verdict_for(args):
    ex = args.id
    if ex == "prolongation":
        return cases.polygon_prolongation_check(args.t)
    if ex == "intersections":
        return cases.verify_intersection_count(args.n)
    if ex == "sign-geodesics":
        return cases.enumerate_sign_geodesics(args.n)
    if ex == "l2-lengths":
        return cases.l2_nongeodesic_lengths(args.nmax)
    if ex == "starlike3d":
        return cases.starlike3d_nonuniqueness()
    raise SchemaError([f"$.example: unknown id {ex!r}"])


def cmd_example(args, domain):
    verdict = _verdict_for(args)
    svg = None
    if args.svg and args.id == "intersections" and "gamma1" in verdict.artifacts:
        V1 = np.asarray(verdict.artifacts["gamma1"])
        V2 = np.asarray(verdict.artifacts["gamma2"])
        window = ((-1.05, V1[:, 0].max() + 0.55), (-1.05, 1.05))
        svg = render_svg(cases.build_omega_n(args.n), window,
                         polylines=[Polyline(V1), Polyline(V2)], labels=[verdict.summary()])
    return CommandResult(f"example-{verdict.example_id}", {
        "example_id": verdict.example_id,
        "claim": verdict.claim,
        "measured": verdict.measured,
        "tolerances": verdict.tolerances,
        "passed": verdict.passed,
    }, verdict.summary(), verdict.passed, svg=svg)


def cmd_all_examples(args, domain):
    verdicts = cases.all_verdicts(fast=args.fast)
    passed = all(v.passed for v in verdicts)
    return CommandResult("all-examples", {
        "verdicts": [
            {"example_id": v.example_id, "claim": v.claim,
             "measured": v.measured, "passed": v.passed}
            for v in verdicts
        ],
        "all_passed": passed,
    }, "\n".join(v.summary() for v in verdicts), passed)


def build_parser():
    p = _Parser(prog="qh", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.add_argument("--out", default="qh-out")
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(handler=handler)

    for name in ("dist", "geodesic"):
        sp = sub.add_parser(name)
        sp.add_argument("--domain", required=True)
        sp.add_argument("--from", dest="frm", type=_numbers, required=True)
        sp.add_argument("--to", type=_numbers, required=True)
        sp.add_argument("--svg", action="store_true")
        # only these two commands hand solver settings to the solver
        sp.add_argument("--resolution", type=float, default=DEFAULT_SOLVER.grid_resolution)
        sp.add_argument("--budget", type=int, default=DEFAULT_SOLVER.vertex_budget)
        sp.add_argument("--max-iterations", type=int,
                        default=DEFAULT_SOLVER.refinement.max_iterations)
        sp.add_argument("--gradient-tol", type=float,
                        default=DEFAULT_SOLVER.refinement.gradient_tol)
        common(sp, cmd_dist)

    sp = sub.add_parser("ball")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--center", type=_numbers, required=True)
    sp.add_argument("--r", type=_positive, required=True)
    sp.add_argument("--window", type=_window)
    sp.add_argument("--field-resolution", type=_positive, default=24.0)
    sp.add_argument("--svg", action="store_true")
    common(sp, cmd_ball)

    sp = sub.add_parser("smoothcheck")
    sp.add_argument("--domain", default="strip")
    sp.add_argument("--center", type=_numbers, default="0,0")
    sp.add_argument("--r", type=_positive, default=1.0)
    sp.add_argument("--probes", type=int, default=8)
    sp.add_argument("--threshold", type=float, default=0.1)
    common(sp, cmd_smoothcheck)

    sp = sub.add_parser("ortho")
    sp.add_argument("--domain", default="strip")
    sp.add_argument("--center", type=_numbers, default="0,0")
    sp.add_argument("--direction", type=_direction, default="1,0")
    sp.add_argument("--r", type=_positive, default=1.0)
    sp.add_argument("--tschedule", type=_numbers, default="0.5,0.65,0.8,0.9")
    sp.add_argument("--field-resolution", type=_positive, default=40.0)
    common(sp, cmd_ortho)

    sp = sub.add_parser("cusp")
    sp.add_argument("--domain", default="strip")
    sp.add_argument("--x", type=_numbers, default="0,0")
    sp.add_argument("--direction", type=_direction, default="1,0")
    sp.add_argument("--r", type=_positive, default=1.0)
    sp.add_argument("--z", type=_numbers, default="0.3,0.5,0.7")
    sp.add_argument("--samples", type=int, default=40)
    common(sp, cmd_cusp)

    sp = sub.add_parser("renorm")
    sp.add_argument("--domain", default="box")
    sp.add_argument("--what", choices=("minkowski", "triangle", "hausdorff", "modulus"),
                    default="minkowski")
    sp.add_argument("--r", type=_positive, default=2.0)
    sp.add_argument("--radii", type=_numbers, default="1,2,3,4")
    sp.add_argument("--directions", type=int, default=64)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--taus", type=_numbers, default="0.4,0.6,0.8,1.0")
    sp.add_argument("--kind", choices=("convexity", "smoothness"), default="convexity")
    common(sp, cmd_renorm)

    sp = sub.add_parser("example")
    sp.add_argument("id", choices=("prolongation", "intersections", "sign-geodesics",
                                   "l2-lengths", "starlike3d"))
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--t", type=float, default=0.5)
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--svg", action="store_true")
    common(sp, cmd_example)

    sp = sub.add_parser("all-examples")
    sp.add_argument("--fast", action="store_true")
    common(sp, cmd_all_examples)
    return p


def dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        _worker_count()  # a malformed QH_THREADS is a usage error, before any output
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(args)
    except (QHError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # runtime faults are not verdict failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
