"""Command-line interface: solves, ball extraction, geometry probes, verdicts.

Every command writes a result document (JSON, optionally CSV/SVG) plus a
run manifest into the output directory, and exits 0 on pass, 1 on a failed
verdict, 2 on an execution error, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import os
import sys
import time

import numpy as np

from . import __version__, cases
from .ball import (
    _worker_count,
    ball_contour,
    contour_tangent_gaps,
    cusp_free_check,
    directional_radii,
    distance_field,
    orthogonality_ratio,
    smoothness_profile,
)
from .geometry import InvalidInputError, QHError
from .io import (
    RunManifest,
    SchemaError,
    domain_to_doc,
    resolve_domain,
    spec_hash,
    write_csv,
    write_json,
    write_manifest,
)
from .renorm import InducedNorm, hausdorff_convergence, modulus_estimate, triangle_check
from .solver import RefinementConfig, SolverConfig, qh_distance
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


def _emit(outdir, name, command, args_echo, config, seed, domain, outputs, t0):
    manifest = RunManifest(
        command=command,
        args=args_echo,
        config=config,
        rng_seed=seed,
        version=__version__,
        input_hash=spec_hash(domain) if domain is not None else "",
        outputs=sorted(outputs),
        wall_time_s=round(time.perf_counter() - t0, 3),
        threads=_worker_count(),
    )
    write_manifest(os.path.join(outdir, f"{name}-manifest.json"), manifest)


def _result_paths(outdir, name):
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, f"{name}.json")


def cmd_dist(args, want_path):
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain)
    s = _solver_config(args)
    res = qh_distance(domain, args.frm, args.to, s)
    name = "geodesic" if want_path else "dist"
    doc = {
        "domain": domain_to_doc(domain),
        "from": args.frm.tolist(),
        "to": args.to.tolist(),
        "qh_distance": res.qh_length,
        "lower_bound_gap": res.lower_bound_gap,
        "converged": res.converged,
        "iterations": res.iterations,
    }
    outputs = []
    rpath = _result_paths(args.out, name)
    write_json(rpath, doc)
    outputs.append(rpath)
    if want_path and res.path is not None:
        cpath = os.path.join(args.out, f"{name}-path.csv")
        dim = res.path.vertices.shape[1]
        write_csv(cpath, [f"x{i+1}" for i in range(dim)], res.path.vertices.tolist())
        outputs.append(cpath)
        if args.svg and dim == 2:
            V = res.path.vertices
            pad = 0.25 * max(float(np.ptp(V, axis=0).max()), 1.0)
            window = ((V[:, 0].min() - pad, V[:, 0].max() + pad),
                      (V[:, 1].min() - pad, V[:, 1].max() + pad))
            spath = os.path.join(args.out, f"{name}.svg")
            text = render_svg(domain, window, polylines=[res.path],
                              labels=[f"k = {res.qh_length:.6f}"])
            from .io import write_atomic
            write_atomic(spath, text)
            outputs.append(spath)
    print(f"qh_distance = {res.qh_length:.12g}  (converged={res.converged})")
    _emit(args.out, name, name, {"domain": args.domain, "from": args.frm, "to": args.to},
          {"solver": s.__dict__ | {"refinement": s.refinement.__dict__}},
          args.seed, domain, outputs, t0)
    return EXIT_PASS if res.converged else EXIT_FAIL


def cmd_ball(args):
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain)
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
    rpath = _result_paths(args.out, "ball")
    doc = {
        "domain": domain_to_doc(domain),
        "center": center.tolist(),
        "r": args.r,
        "grid_h": field.h,
        "loops": [L.tolist() for L in contour.loops],
        "max_tangent_gap": float(contour_tangent_gaps(contour).max()),
    }
    write_json(rpath, doc)
    outputs = [rpath]
    cpath = os.path.join(args.out, "ball-contour.csv")
    rows = []
    for li, L in enumerate(contour.loops):
        rows += [[li, v[0], v[1]] for v in L]
    write_csv(cpath, ["loop", "x1", "x2"], rows)
    outputs.append(cpath)
    if args.svg:
        spath = os.path.join(args.out, "ball.svg")
        from .io import write_atomic
        write_atomic(spath, render_svg(domain, window, contours=[contour],
                                       points=[center],
                                       labels=[f"r = {args.r}"]))
        outputs.append(spath)
    print(f"contour loops: {len(contour.loops)}  grid h = {field.h:.4g}")
    _emit(args.out, "ball", "ball",
          {"domain": args.domain, "center": args.center, "r": args.r},
          {"field_resolution": args.field_resolution}, args.seed, domain, outputs, t0)
    return EXIT_PASS


def cmd_smoothcheck(args):
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain)
    center = args.center
    rep = smoothness_profile(domain, center, args.r, probes=args.probes)
    pp = rep.per_probe()
    ratio = pp[:, -1] / pp[:, 0]
    decreasing = bool((np.diff(pp, axis=1) < 0).all())
    passed = decreasing and bool((ratio < args.threshold).all())
    rpath = _result_paths(args.out, "smoothcheck")
    write_json(rpath, {
        "domain": domain_to_doc(domain), "center": center.tolist(), "r": args.r,
        "h_schedule": list(rep.h_schedule),
        "probes": rep.probes.tolist(),
        "per_probe_ratios": pp.tolist(),
        "final_over_initial": ratio.tolist(),
        "decreasing": decreasing,
        "passed": passed,
    })
    cpath = os.path.join(args.out, "smoothcheck.csv")
    rows = []
    for i in range(pp.shape[0]):
        for j, h in enumerate(rep.h_schedule):
            rows.append([i, h, pp[i, j]])
    write_csv(cpath, ["probe", "h_fraction", "ratio"], rows)
    print(f"smoothness: decreasing={decreasing} max final/initial={ratio.max():.4f}")
    _emit(args.out, "smoothcheck", "smoothcheck",
          {"domain": args.domain, "center": args.center, "r": args.r},
          {"probes": args.probes, "threshold": args.threshold},
          args.seed, domain, [rpath, cpath], t0)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_ortho(args):
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain)
    center = args.center
    u = args.direction / np.linalg.norm(args.direction)
    rad = directional_radii(domain, center, u[None, :], args.r)[0]
    x = center + rad * u
    res = qh_distance(domain, center, x)
    reach = domain.boundary_distance(center) * float(np.expm1(args.r)) * 1.05
    window = _clipped_window(domain, center, reach)
    field = distance_field(domain, center, window, args.field_resolution)
    contour = ball_contour(field, args.r)
    tsched = args.tschedule
    ratios = orthogonality_ratio(domain, x, tsched, contour, geodesic=res.path)
    passed = bool((np.abs(ratios[-2:] - 1.0) <= 0.05).all())
    rpath = _result_paths(args.out, "ortho")
    write_json(rpath, {
        "domain": domain_to_doc(domain), "center": center.tolist(),
        "direction": u.tolist(), "r": args.r,
        "t_schedule": tsched, "ratios": ratios.tolist(), "passed": passed,
    })
    print("orthogonality ratios:", np.round(ratios, 4).tolist())
    _emit(args.out, "ortho", "ortho",
          {"domain": args.domain, "direction": args.direction, "r": args.r},
          {"field_resolution": args.field_resolution, "t_schedule": tsched},
          args.seed, domain, [rpath], t0)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_cusp(args):
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain)
    x = args.x
    u = args.direction / np.linalg.norm(args.direction)
    rad = directional_radii(domain, x, u[None, :], args.r)[0]
    y = x + rad * u
    zs = args.z
    report = cusp_free_check(domain, x, args.r, y, z_schedule=zs,
                             samples=args.samples, rng_seed=args.seed)
    viol = sum(e["violations"] for e in report)
    rpath = _result_paths(args.out, "cusp")
    write_json(rpath, {
        "domain": domain_to_doc(domain), "x": x.tolist(), "y": y.tolist(),
        "r": args.r, "report": report, "violations": viol,
    })
    print(f"cusp check: {viol} violations over {sum(e['samples'] for e in report)} samples")
    _emit(args.out, "cusp", "cusp",
          {"domain": args.domain, "x": args.x, "r": args.r},
          {"z": zs, "samples": args.samples}, args.seed, domain, [rpath], t0)
    return EXIT_PASS if viol == 0 else EXIT_FAIL


def cmd_renorm(args):
    t0 = time.perf_counter()
    domain = resolve_domain(args.domain)
    outputs = []
    passed = True
    doc = {"domain": domain_to_doc(domain), "what": args.what}
    if args.what == "hausdorff":
        radii = args.radii
        series = hausdorff_convergence(domain, radii, directions=args.directions)
        doc["radii"] = radii
        doc["d_H"] = series.tolist()
        passed = bool((np.diff(series) < 0).all())
        cpath = os.path.join(args.out, "renorm-hausdorff.csv")
        write_csv(cpath, ["r", "d_H"], list(zip(radii, series.tolist())))
        outputs.append(cpath)
        print("d_H series:", np.round(series, 6).tolist())
    else:
        norm = InducedNorm(domain, args.r, rng_seed=args.seed)
        if args.what == "minkowski":
            th = np.linspace(0, 2 * np.pi, args.directions, endpoint=False)
            X = np.stack([np.cos(th), np.sin(th)], axis=1) * args.scale
            M = norm.eval_many(X)
            doc["points"] = X.tolist()
            doc["M"] = M.tolist()
            cpath = os.path.join(args.out, "renorm-minkowski.csv")
            write_csv(cpath, ["x1", "x2", "M"],
                      [[x[0], x[1], m] for x, m in zip(X, M)])
            outputs.append(cpath)
            print(f"M evaluated on {len(X)} directions")
        elif args.what == "triangle":
            viol = triangle_check(norm, samples=args.samples, rng_seed=args.seed)
            doc["violations"] = viol
            doc["samples"] = args.samples
            passed = len(viol) == 0
            print(f"triangle check: {len(viol)} violations / {args.samples} pairs")
        elif args.what == "modulus":
            est = modulus_estimate(norm, args.kind, args.taus,
                                   sample_budget=args.samples, rng_seed=args.seed)
            doc["kind"] = est.kind
            doc["taus"] = est.taus.tolist()
            doc["values"] = est.values.tolist()
            cpath = os.path.join(args.out, "renorm-modulus.csv")
            write_csv(cpath, ["tau", est.kind], list(zip(est.taus, est.values)))
            outputs.append(cpath)
            print(f"{est.kind} modulus:", np.round(est.values, 6).tolist())
    rpath = _result_paths(args.out, "renorm")
    doc["passed"] = passed
    write_json(rpath, doc)
    outputs.append(rpath)
    _emit(args.out, "renorm", "renorm",
          {"domain": args.domain, "what": args.what},
          {"r": args.r, "samples": args.samples}, args.seed, domain, outputs, t0)
    return EXIT_PASS if passed else EXIT_FAIL


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


def cmd_example(args):
    t0 = time.perf_counter()
    verdict = _verdict_for(args)
    rpath = _result_paths(args.out, f"example-{verdict.example_id}")
    write_json(rpath, {
        "example_id": verdict.example_id,
        "claim": verdict.claim,
        "measured": verdict.measured,
        "tolerances": verdict.tolerances,
        "passed": verdict.passed,
    })
    outputs = [rpath]
    if args.svg and "gamma1" in verdict.artifacts:
        from .geometry import Polyline
        from .io import write_atomic
        dom = cases.build_omega_n(args.n) if args.id == "intersections" else None
        if dom is not None:
            V1 = np.asarray(verdict.artifacts["gamma1"])
            V2 = np.asarray(verdict.artifacts["gamma2"])
            window = ((-1.05, V1[:, 0].max() + 0.55), (-1.05, 1.05))
            spath = os.path.join(args.out, f"example-{verdict.example_id}.svg")
            write_atomic(spath, render_svg(
                dom, window, polylines=[Polyline(V1), Polyline(V2)],
                labels=[verdict.summary()]))
            outputs.append(spath)
    print(verdict.summary())
    _emit(args.out, f"example-{verdict.example_id}", "example",
          {"id": args.id, "n": getattr(args, "n", None), "t": getattr(args, "t", None)},
          {}, args.seed, None, outputs, t0)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_all_examples(args):
    t0 = time.perf_counter()
    verdicts = cases.all_verdicts(fast=args.fast)
    rpath = _result_paths(args.out, "all-examples")
    write_json(rpath, {
        "verdicts": [
            {"example_id": v.example_id, "claim": v.claim,
             "measured": v.measured, "passed": v.passed}
            for v in verdicts
        ],
        "all_passed": all(v.passed for v in verdicts),
    })
    for v in verdicts:
        print(v.summary())
    _emit(args.out, "all-examples", "all-examples", {"fast": args.fast}, {},
          args.seed, None, [rpath], t0)
    return EXIT_PASS if all(v.passed for v in verdicts) else EXIT_FAIL


def build_parser():
    p = _Parser(prog="qh", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="qh-out")
        sp.add_argument("--seed", type=int, default=0)

    for name in ("dist", "geodesic"):
        sp = sub.add_parser(name)
        sp.add_argument("--domain", required=True)
        sp.add_argument("--from", dest="frm", type=_numbers, required=True)
        sp.add_argument("--to", type=_numbers, required=True)
        sp.add_argument("--svg", action="store_true")
        # only these two commands hand solver settings to the solver
        sp.add_argument("--resolution", type=float, default=32.0)
        sp.add_argument("--budget", type=int, default=49)
        sp.add_argument("--max-iterations", type=int, default=200)
        sp.add_argument("--gradient-tol", type=float, default=1e-4)
        common(sp)

    sp = sub.add_parser("ball")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--center", type=_numbers, required=True)
    sp.add_argument("--r", type=_positive, required=True)
    sp.add_argument("--window", type=_window)
    sp.add_argument("--field-resolution", type=_positive, default=24.0)
    sp.add_argument("--svg", action="store_true")
    common(sp)

    sp = sub.add_parser("smoothcheck")
    sp.add_argument("--domain", default="strip")
    sp.add_argument("--center", type=_numbers, default="0,0")
    sp.add_argument("--r", type=_positive, default=1.0)
    sp.add_argument("--probes", type=int, default=8)
    sp.add_argument("--threshold", type=float, default=0.1)
    common(sp)

    sp = sub.add_parser("ortho")
    sp.add_argument("--domain", default="strip")
    sp.add_argument("--center", type=_numbers, default="0,0")
    sp.add_argument("--direction", type=_direction, default="1,0")
    sp.add_argument("--r", type=_positive, default=1.0)
    sp.add_argument("--tschedule", type=_numbers, default="0.5,0.65,0.8,0.9")
    sp.add_argument("--field-resolution", type=_positive, default=40.0)
    common(sp)

    sp = sub.add_parser("cusp")
    sp.add_argument("--domain", default="strip")
    sp.add_argument("--x", type=_numbers, default="0,0")
    sp.add_argument("--direction", type=_direction, default="1,0")
    sp.add_argument("--r", type=_positive, default=1.0)
    sp.add_argument("--z", type=_numbers, default="0.3,0.5,0.7")
    sp.add_argument("--samples", type=int, default=40)
    common(sp)

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
    common(sp)

    sp = sub.add_parser("example")
    sp.add_argument("id", choices=("prolongation", "intersections", "sign-geodesics",
                                   "l2-lengths", "starlike3d"))
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--t", type=float, default=0.5)
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--svg", action="store_true")
    common(sp)

    sp = sub.add_parser("all-examples")
    sp.add_argument("--fast", action="store_true")
    common(sp)
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
    commands = {"ball": cmd_ball, "smoothcheck": cmd_smoothcheck, "ortho": cmd_ortho,
                "cusp": cmd_cusp, "renorm": cmd_renorm, "example": cmd_example,
                "all-examples": cmd_all_examples}
    try:
        if args.command in ("dist", "geodesic"):
            return cmd_dist(args, want_path=args.command == "geodesic")
        return commands[args.command](args)
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
