"""Deterministic SVG figures: domain outlines, removals, geodesics, contours.

Figures use a fixed canvas, stroke palette and 1e-4 coordinate rounding so
that reruns emit byte-identical documents.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    BallPrimitive,
    BoxPrimitive,
    HalfSpace,
    Polygon,
    QHError,
    RemovedPoint,
    RemovedSegment,
    Slab,
)


class RenderError(QHError):
    pass


CANVAS = 760.0
MARGIN = 40.0

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]


def _fmt(x):
    return format(round(float(x), 4), ".4f").rstrip("0").rstrip(".")


class _Frame:
    def __init__(self, window):
        (x0, x1), (y0, y1) = window
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        span = max(x1 - x0, y1 - y0)
        self.scale = (CANVAS - 2 * MARGIN) / span
        self.h = (y1 - y0) * self.scale + 2 * MARGIN
        self.w = (x1 - x0) * self.scale + 2 * MARGIN

    def map(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        sx = MARGIN + (pts[:, 0] - self.x0) * self.scale
        sy = self.h - (MARGIN + (pts[:, 1] - self.y0) * self.scale)
        return np.stack([sx, sy], axis=1)


def _path_d(mapped, close=False):
    parts = [f"M {_fmt(mapped[0, 0])} {_fmt(mapped[0, 1])}"]
    for p in mapped[1:]:
        parts.append(f"L {_fmt(p[0])} {_fmt(p[1])}")
    if close:
        parts.append("Z")
    return " ".join(parts)


def _domain_outline(domain, frame, window):
    out = []
    (x0, x1), (y0, y1) = window
    for p in domain.primitives:
        if isinstance(p, BoxPrimitive):
            box = np.array([
                [p.lower[0], p.lower[1]], [p.upper[0], p.lower[1]],
                [p.upper[0], p.upper[1]], [p.lower[0], p.upper[1]],
            ])
            out.append(f'<path d="{_path_d(frame.map(box), close=True)}" '
                       f'fill="none" stroke="#444" stroke-width="1.4"/>')
        elif isinstance(p, BallPrimitive):
            c = frame.map(np.array([p.center]))[0]
            out.append(f'<circle cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" '
                       f'r="{_fmt(p.radius * frame.scale)}" fill="none" '
                       f'stroke="#444" stroke-width="1.4"/>')
        elif isinstance(p, Slab):
            for level in (p.lower, p.upper):
                if p.axis == 1:
                    seg = np.array([[x0, level], [x1, level]])
                else:
                    seg = np.array([[level, y0], [level, y1]])
                out.append(f'<path d="{_path_d(frame.map(seg))}" fill="none" '
                           f'stroke="#444" stroke-width="1.4"/>')
        elif isinstance(p, HalfSpace):
            n = np.asarray(p.normal, dtype=float)
            t = np.array([-n[1], n[0]])
            base = n * p.offset / (n @ n)
            ts = np.linspace(-4 * (x1 - x0), 4 * (x1 - x0), 2)
            seg = base[None, :] + ts[:, None] * t[None, :]
            out.append(f'<path d="{_path_d(frame.map(seg))}" fill="none" '
                       f'stroke="#444" stroke-width="1.4"/>')
        elif isinstance(p, Polygon):
            out.append(f'<path d="{_path_d(frame.map(np.asarray(p.vertices)), close=True)}" '
                       f'fill="none" stroke="#444" stroke-width="1.4"/>')
    for r in domain.removals:
        if isinstance(r, RemovedPoint):
            c = frame.map(np.array([r.point]))[0]
            out.append(f'<circle cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" r="3" '
                       f'fill="#000"/>')
        elif isinstance(r, RemovedSegment):
            seg = frame.map(np.array([r.a, r.b]))
            out.append(f'<path d="{_path_d(seg)}" fill="none" stroke="#000" '
                       f'stroke-width="2.6"/>')
    return out


def render_svg(domain, window, polylines=(), contours=(), points=(), labels=()):
    """Figure with the domain outline, optional geodesics, contours, markers.

    2-D only; slice higher-dimensional artifacts before rendering.
    """
    if domain.dimension != 2:
        raise RenderError("3-D artifacts need a slice selection before rendering")
    frame = _Frame(window)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.w)}" '
        f'height="{_fmt(frame.h)}" viewBox="0 0 {_fmt(frame.w)} {_fmt(frame.h)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    body += _domain_outline(domain, frame, window)
    for i, poly in enumerate(polylines):
        V = poly.vertices if hasattr(poly, "vertices") else np.asarray(poly)
        color = PALETTE[i % len(PALETTE)]
        body.append(f'<path d="{_path_d(frame.map(V))}" fill="none" '
                    f'stroke="{color}" stroke-width="1.8"/>')
    for i, ct in enumerate(contours):
        loops = ct.loops if hasattr(ct, "loops") else [np.asarray(ct)]
        color = PALETTE[(i + len(polylines)) % len(PALETTE)]
        for L in loops:
            body.append(f'<path d="{_path_d(frame.map(L), close=True)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5" stroke-dasharray="5 3"/>')
    for p in points:
        c = frame.map(np.asarray(p, dtype=float)[None, :])[0]
        body.append(f'<circle cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" r="3.2" '
                    f'fill="none" stroke="#d62728" stroke-width="1.5"/>')
    for i, text in enumerate(labels):
        body.append(f'<text x="{_fmt(MARGIN)}" y="{_fmt(18 + 16 * i)}" '
                    f'font-family="monospace" font-size="13">{text}</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"
