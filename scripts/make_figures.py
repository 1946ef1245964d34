#!/usr/bin/env python3
"""Regenerate the standard figures: geodesic pairs over the rectangle with
obstacles, a strip ball with radii, and the corridor polygon prolongations."""

import os

import numpy as np

from qhtk.ball import ball_contour, distance_field
from qhtk.cases import build_omega_n, omega_endpoints, sign_pattern_seed, OMEGA_SOLVER
from qhtk.geometry import prolongation_polygon, strip
from qhtk.io import write_atomic
from qhtk.solver import _raise_first, qh_distance, refine_paths
from qhtk.svg import render_svg

OUT = "qh-out"


def omega_figure(n=5):
    dom = build_omega_n(n)
    s = OMEGA_SOLVER[n]
    seeds = [sign_pattern_seed(n, [sgn] * (n - 1)) for sgn in (1, -1)]
    g1, g2 = _raise_first(refine_paths(dom, seeds, s))
    x, y = omega_endpoints(n)
    window = ((-1.05, y[0] + 0.55), (-1.05, 1.05))
    svg = render_svg(dom, window, polylines=[g1.path, g2.path], points=[x, y],
                     labels=[f"reflected geodesic pair, n={n}",
                             f"length {g1.qh_length:.6f}"])
    write_atomic(os.path.join(OUT, f"figure-omega-{n}.svg"), svg)


def strip_ball_figure():
    dom = strip()
    fld = distance_field(dom, [0.0, 0.0], ((-1.28, 1.28), (-0.76, 0.76)), 30)
    ct = ball_contour(fld, 1.0)
    radii = []
    for ang in (0.0, 0.6, 1.2, np.pi / 2):
        tgt = np.array([np.cos(ang), np.sin(ang)])
        tgt = tgt / max(np.abs(tgt[1]) / 0.63, np.abs(tgt[0]) / 1.0, 1.0)
        radii.append(qh_distance(dom, np.zeros(2), tgt).path)
    svg = render_svg(dom, ((-1.6, 1.6), (-1.1, 1.1)), polylines=radii,
                     contours=[ct], points=[np.zeros(2)],
                     labels=["ball of radius 1 with geodesic radii"])
    write_atomic(os.path.join(OUT, "figure-strip-ball.svg"), svg)


def prolongation_figure():
    dom = prolongation_polygon()
    x = np.array([-2.0, 0.0])
    g1 = qh_distance(dom, x, np.array([0.0, 1.0]))
    g2 = qh_distance(dom, x, np.array([0.0, -1.0]))
    svg = render_svg(dom, ((-4.4, 4.4), (-4.4, 4.4)), polylines=[g1.path, g2.path],
                     points=[x, np.array([-1.0, 0.0])],
                     labels=["two prolongations through the corridor mouth"])
    write_atomic(os.path.join(OUT, "figure-prolongation.svg"), svg)


if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    omega_figure(5)
    strip_ball_figure()
    prolongation_figure()
    print(f"figures written to {OUT}/")
