"""Quasihyperbolic balls: sampled distance fields, sphere contours, and the
numerical probes for ball smoothness, geodesic-sphere orthogonality and
cusp-freeness.

Spheres are extracted by marching squares on a sampled field of
k(center, .) values rather than by any shooting construction: level-set
extraction only ever needs distance evaluations.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dfield

import numpy as np

from .batch import solve_batch
from .geometry import InvalidInputError, QHError
from .solver import (
    DEFAULT_SOLVER,
    RefinementConfig,
    SolverConfig,
    qh_distance,
)


class FieldError(QHError):
    pass


class TruncatedContourError(QHError):
    """The requested level set runs off the sampled window."""


class ResolutionError(QHError):
    """A contour-resolution certificate failed."""


class ProbeRejectedError(QHError):
    pass


FIELD_REFINEMENT = RefinementConfig(max_iterations=40, gradient_tol=4e-4)
FIELD_SOLVER = SolverConfig(refinement=FIELD_REFINEMENT)

# spans one octave more than the classical {0.1 ... 0.0125} so that a
# linearly decaying second-difference ratio can fall below a tenth of its
# initial value; see the ledger note on the schedule arithmetic
DEFAULT_H_SCHEDULE = (0.2, 0.1, 0.05, 0.025, 0.0125)


@dataclass
class DistanceField:
    """k(center, node) on a rectangular lattice; NaN marks nodes outside."""

    center: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ys))
    h: float
    meta: dict = dfield(default_factory=dict)

    def interp(self, pts):
        """Bilinear interpolation; NaN outside the valid footprint."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ix = np.clip(np.searchsorted(self.xs, pts[:, 0]) - 1, 0, len(self.xs) - 2)
        iy = np.clip(np.searchsorted(self.ys, pts[:, 1]) - 1, 0, len(self.ys) - 2)
        tx = (pts[:, 0] - self.xs[ix]) / (self.xs[ix + 1] - self.xs[ix])
        ty = (pts[:, 1] - self.ys[iy]) / (self.ys[iy + 1] - self.ys[iy])
        v00 = self.values[ix, iy]
        v10 = self.values[ix + 1, iy]
        v01 = self.values[ix, iy + 1]
        v11 = self.values[ix + 1, iy + 1]
        return (
            v00 * (1 - tx) * (1 - ty)
            + v10 * tx * (1 - ty)
            + v01 * (1 - tx) * ty
            + v11 * tx * ty
        )


def _worker_count():
    """Worker threads for field solves: QH_THREADS, at least 1 (default 1).

    Raises InvalidInputError when QH_THREADS is set but is not an integer.
    """
    raw = os.environ.get("QH_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise InvalidInputError(f"QH_THREADS must be an integer, got {raw!r}") from None


_FIELD_CHUNK = 1400  # nodes per solve_batch call, the unit of work of a worker thread


def distance_field(domain, center, window, resolution, vertex_count=17):
    """Sample k(center, .) on a lattice of spacing 1/resolution.

    Every node is an independent batched solve from the center (chord
    seeds; field domains are convex) at ``FIELD_SOLVER``.  Nodes outside
    the domain are NaN.
    """
    if domain.dimension != 2:
        raise InvalidInputError("distance fields are 2-D; slice 3-D domains first")
    center = np.asarray(center, dtype=float)
    (x0, x1), (y0, y1) = window
    h = 1.0 / resolution
    xs = np.arange(x0, x1 + 0.5 * h, h)
    ys = np.arange(y0, y1 + 0.5 * h, h)
    P = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    depth = domain.depth_many(P)
    valid = depth > 1e-9
    values = np.full(P.shape[0], np.nan)
    idx = np.nonzero(valid)[0]
    if idx.size == 0:
        raise FieldError("window contains no interior nodes")
    near = idx[np.argmin(np.sqrt(((P[idx] - center) ** 2).sum(axis=1)))]
    if np.linalg.norm(P[near] - center) > np.sqrt(2.0) * h:
        raise FieldError("resolution too coarse to connect the center")
    chunks = [idx[i:i + _FIELD_CHUNK] for i in range(0, idx.size, _FIELD_CHUNK)]

    def run(ids):
        ctr = np.broadcast_to(center, (ids.size, 2))
        lengths, _, _ = solve_batch(domain, ctr, P[ids], FIELD_SOLVER,
                                    vertex_count=vertex_count, relax_sweeps=1)
        return lengths

    workers = _worker_count()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run, chunks))
    else:
        results = [run(ids) for ids in chunks]
    for ids, lengths in zip(chunks, results):
        values[ids] = lengths
    values = values.reshape(len(xs), len(ys))
    # cheap sanity: the node nearest the center must not cost more than
    # one cell of travel at the local weight
    i0 = np.unravel_index(near, values.shape)
    cell_cost = np.sqrt(2.0) * h / max(domain.boundary_distance(center) - h, 1e-12)
    if values[i0] > cell_cost + 1e-6:
        raise FieldError("field value at the center node exceeds one cell diameter")
    return DistanceField(center=center, xs=xs, ys=ys, values=values, h=h,
                         meta={"resolution": resolution, "vertex_count": vertex_count})


@dataclass
class BallContour:
    """Closed level-set loops of a distance field at level r."""

    level: float
    loops: list  # list of (k, 2) arrays, implicitly closed (last -> first)
    h: float
    meta: dict = dfield(default_factory=dict)


def _loop_area(L):
    x, y = L[:, 0], L[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def ball_contour(field: DistanceField, r):
    """Marching squares at level r with linear edge interpolation.

    Loops are closed, simple, and oriented counterclockwise; a level set
    that runs into the window border or into NaN territory raises
    TruncatedContourError.
    """
    v = field.values
    nx, ny = v.shape
    vals = np.nanmin(v), np.nanmax(v)
    if not (vals[0] < r < vals[1]):
        raise InvalidInputError("level must lie strictly between field extremes")

    # one crossing point per lattice edge, shared by both adjacent cells
    hx = {}
    for i in range(nx - 1):
        for j in range(ny):
            a, b = v[i, j], v[i + 1, j]
            if np.isfinite(a) and np.isfinite(b) and (a < r) != (b < r):
                t = (r - a) / (b - a)
                hx[(i, j)] = (field.xs[i] + t * (field.xs[i + 1] - field.xs[i]), field.ys[j])
    vx = {}
    for i in range(nx):
        for j in range(ny - 1):
            a, b = v[i, j], v[i, j + 1]
            if np.isfinite(a) and np.isfinite(b) and (a < r) != (b < r):
                t = (r - a) / (b - a)
                vx[(i, j)] = (field.xs[i], field.ys[j] + t * (field.ys[j + 1] - field.ys[j]))

    # per-cell segments between edge crossings
    adj = {}

    def link(n1, n2):
        adj.setdefault(n1, []).append(n2)
        adj.setdefault(n2, []).append(n1)

    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = (v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1])
            if not all(np.isfinite(c) for c in corners):
                if any(np.isfinite(c) and (c < r) for c in corners) and any(
                    np.isfinite(c) and (c >= r) for c in corners
                ):
                    raise TruncatedContourError(
                        "level set reaches nodes outside the domain footprint"
                    )
                continue
            code = (
                (1 if corners[0] < r else 0)
                | (2 if corners[1] < r else 0)
                | (4 if corners[2] < r else 0)
                | (8 if corners[3] < r else 0)
            )
            if code in (0, 15):
                continue
            bottom = ("H", i, j)
            right = ("V", i + 1, j)
            top = ("H", i, j + 1)
            left = ("V", i, j)
            segs = {
                1: [(left, bottom)], 14: [(left, bottom)],
                2: [(bottom, right)], 13: [(bottom, right)],
                3: [(left, right)], 12: [(left, right)],
                4: [(right, top)], 11: [(right, top)],
                6: [(bottom, top)], 9: [(bottom, top)],
                7: [(left, top)], 8: [(left, top)],
            }
            if code in (5, 10):
                mid = float(np.mean(corners))
                if (mid < r) == (code == 5):
                    pairs = [(left, bottom), (right, top)]
                else:
                    pairs = [(left, top), (bottom, right)]
            else:
                pairs = segs[code]
            for n1, n2 in pairs:
                link(n1, n2)

    def node_point(node):
        kind, i, j = node
        return hx[(i, j)] if kind == "H" else vx[(i, j)]

    for node, nbrs in adj.items():
        if len(nbrs) != 2:
            raise TruncatedContourError("open contour chain: enlarge the window")

    loops = []
    seen = set()
    for start in adj:
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = [n for n in adj[cur] if n != prev]
            nxt = nxt[0] if nxt else prev
            if nxt == start:
                break
            loop.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        pts = np.array([node_point(n) for n in loop])
        if _loop_area(pts) < 0:
            pts = pts[::-1]
        loops.append(pts)
    loops.sort(key=lambda L: (-abs(_loop_area(L)), L[0, 0], L[0, 1]))
    return BallContour(level=float(r), loops=loops, h=field.h,
                       meta={"center": field.center.tolist()})


def contour_point_distance(contour: BallContour, pts):
    """Distance from points to the polygonal contour (all loops)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    best = np.full(pts.shape[0], np.inf)
    for L in contour.loops:
        A = L
        B = np.roll(L, -1, axis=0)
        D = B - A
        DD = np.maximum((D * D).sum(axis=1), 1e-300)
        diff = pts[:, None, :] - A[None, :, :]
        t = np.clip(np.einsum("nkd,kd->nk", diff, D) / DD, 0.0, 1.0)
        gap = diff - t[:, :, None] * D[None, :, :]
        best = np.minimum(best, np.sqrt(np.einsum("nkd,nkd->nk", gap, gap).min(axis=1)))
    return best


def _resample_loop(L, count):
    """``count(perimeter)`` points at uniform arclength along the closed
    polygon L (its last vertex joins the first), starting at L[0]."""
    closed = np.vstack([L, L[:1]])
    seg = np.sqrt(((closed[1:] - closed[:-1]) ** 2).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    t = np.linspace(0.0, cum[-1], count(cum[-1]), endpoint=False)
    return np.stack([np.interp(t, cum, closed[:, 0]), np.interp(t, cum, closed[:, 1])], axis=1)


def contour_tangent_gaps(contour: BallContour, return_positions=False):
    """One-sided tangent angle gap at every resampled contour vertex.

    Each loop is resampled at the grid spacing (at least 20 vertices).
    Left and right secant directions span five vertices on each side; the
    gap is the angle between them.  Where the level curve is C^2 the max
    gap scales linearly with the sampling spacing; at points where the
    metric is only C^(1,1/2) (weight-seam crossings) it decays like the
    square root of the spacing, which still vanishes, unlike at a genuine
    corner.
    """
    window = 5
    gaps = []
    positions = []
    for L in contour.loops:
        P = _resample_loop(L, lambda length: max(4 * window, int(np.round(length / contour.h))))
        m = P.shape[0]
        for i in range(m):
            left = P[(np.arange(i - window, i + 1)) % m]
            right = P[(np.arange(i, i + window + 1)) % m]
            dl = left[-1] - left[0]
            lsum = np.sqrt(((left[1:] - left[:-1]) ** 2).sum(axis=1)).sum()
            dr = right[-1] - right[0]
            rsum = np.sqrt(((right[1:] - right[:-1]) ** 2).sum(axis=1)).sum()
            if lsum == 0 or rsum == 0:
                continue
            al = np.arctan2(dl[1], dl[0])
            ar = np.arctan2(dr[1], dr[0])
            gap = np.abs((ar - al + np.pi) % (2 * np.pi) - np.pi)
            gaps.append(gap)
            positions.append(P[i])
    if return_positions:
        return np.array(gaps), np.array(positions)
    return np.array(gaps)


@dataclass
class SmoothnessReport:
    probes: np.ndarray            # (P, 2)
    directions: np.ndarray        # (P, D, 2); tangent, normal, two diagonals
    h_schedule: tuple             # fractions of d(probe, boundary)
    ratios: np.ndarray            # (P, D, H): |k+ + k- - 2 k0| / h
    base_values: np.ndarray       # (P,) k(center, probe)
    meta: dict = dfield(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.ratios).all():
            raise InvalidInputError("non-finite second-difference ratio")
        sched = np.asarray(self.h_schedule)
        if not (np.diff(sched) < 0).all():
            raise InvalidInputError("h schedule must be strictly decreasing")

    def per_probe(self):
        """max over directions, per (probe, h)."""
        return self.ratios.max(axis=1)


RADIUS_SOLVER = SolverConfig(refinement=RefinementConfig(
    max_iterations=40, gradient_tol=2e-4, length_rel_tol=1e-9))


def directional_radii(domain, center, dirs, level, vertex_count=25):
    """Radii s_k with k(center, center + s_k u_k) = level, all at once.

    Bracketed Illinois regula falsi per direction, at most 18 rounds, each
    solved as one batch at ``RADIUS_SOLVER`` with warm radially-scaled
    restarts; a direction drops out once its bracket is within 3e-6
    relative.  The distance function is steep at the sphere (slope is the
    boundary weight), so a loose k-tolerance already pins the radius.
    The logarithmic lower bound gives two analytic upper brackets, from
    the ray's boundary hit L and from the center depth:
    k >= max(log(1 + s/(L-s)), log(1 + s/d(center))), so the sphere lies
    below min(L (1 - e^{-level}), d(center) (e^{level} - 1)).  No
    arithmetic mixes directions and ``solve_batch`` is batch-invariant,
    so a radius keeps its bits whatever directions share the call.  The
    ray limits are exact only on a convex domain; others raise
    ``InvalidInputError``.
    """
    if not domain.is_convex:
        raise InvalidInputError("directional radii need a convex domain")
    center = np.asarray(center, dtype=float)
    U = np.asarray(dirs, dtype=float)
    U = U / np.sqrt((U * U).sum(axis=1, keepdims=True))
    K = U.shape[0]
    L = _boundary_ray_limits(domain, center, U)
    d_center = domain.boundary_distance(center)
    lo = np.zeros(K)
    hi = np.minimum(L * (1.0 - np.exp(-level)), d_center * np.expm1(level))
    flo = np.full(K, -level)           # k(center, center) - level
    fhi = np.full(K, np.nan)           # unknown until first sampled
    side = np.zeros(K, dtype=int)      # Illinois bookkeeping
    paths = np.zeros((K, vertex_count, center.size))
    prev_s = np.ones(K)
    active = np.ones(K, dtype=bool)
    for it in range(18):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            cand = (lo[idx] * fhi[idx] - hi[idx] * flo[idx]) / (fhi[idx] - flo[idx])
        mid = 0.5 * (lo[idx] + hi[idx])
        # first two rounds and any degenerate secant fall back to bisection
        use = np.where(np.isfinite(cand), cand, mid)
        width = hi[idx] - lo[idx]
        use = np.clip(use, lo[idx] + 0.05 * width, hi[idx] - 0.05 * width)
        snew = use if it >= 1 else mid
        targets = center[None, :] + snew[:, None] * U[idx]
        inits = None
        if it > 0:  # every direction was solved in round 0
            scale = (snew / np.maximum(prev_s[idx], 1e-300))[:, None, None]
            inits = center[None, None, :] + (paths[idx] - center[None, None, :]) * scale
        ctr = np.broadcast_to(center, (idx.size, center.size))
        kv, V, _ = solve_batch(domain, ctr, targets, RADIUS_SOLVER,
                               vertex_count=vertex_count, relax_sweeps=1,
                               inits=inits)
        paths[idx] = V
        prev_s[idx] = snew
        fv = kv - level
        below = fv <= 0
        iu = idx[below]
        lo[iu] = snew[below]
        flo[iu] = fv[below]
        # Illinois halving of the retained opposite value
        rep = iu[side[iu] == 1]
        fhi[rep] *= 0.5
        side[iu] = 1
        idn = idx[~below]
        hi[idn] = snew[~below]
        fhi[idn] = fv[~below]
        rep = idn[side[idn] == -1]
        flo[rep] *= 0.5
        side[idn] = -1
        active[idx] = (hi[idx] - lo[idx]) > 3e-6 * np.maximum(hi[idx], 1e-12)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (lo * fhi - hi * flo) / (fhi - flo)
    return np.where(np.isfinite(out), np.clip(out, lo, hi), 0.5 * (lo + hi))


def _boundary_ray_limits(domain, origin, U, cap=1e6):
    """Where the ray origin + s u leaves the domain, for every row u of U,
    in lockstep: each ray doubles s from 1 until it probes a point outside
    (its limit is ``cap`` once s passes it), then bisects that bracket 80
    times, every step one ``contains_many`` call over the rays still in
    that phase.  On a convex domain this is sup { s : origin + s u inside };
    otherwise it is only some exit, and the probes never see removed
    points or segments."""
    U = np.atleast_2d(U)
    lo, hi = np.zeros(U.shape[0]), np.ones(U.shape[0])
    capped = np.zeros(U.shape[0], dtype=bool)
    grow = np.arange(U.shape[0])
    for _ in range(80):
        if grow.size == 0:
            break
        grow = grow[domain.contains_many(origin + hi[grow, None] * U[grow])]
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        capped[grow] = hi[grow] > cap
        grow = grow[~capped[grow]]
    idx = np.nonzero(~capped)[0]
    a, b, V = lo[idx], hi[idx], U[idx]
    for _ in range(80 if idx.size else 0):
        mid = 0.5 * (a + b)
        inside = domain.contains_many(origin + mid[:, None] * V)
        a, b = np.where(inside, mid, a), np.where(inside, b, mid)
    lo[idx] = a
    lo[capped] = cap
    return lo


PROBE_SOLVER = SolverConfig(refinement=RefinementConfig(
    max_iterations=400, gradient_tol=1e-6, length_rel_tol=1e-13))


_PROBE_VERTICES = 49


def smoothness_profile(domain, center, r, probes=8,
                       h_schedule=DEFAULT_H_SCHEDULE, k_eval=None):
    """Second-difference ratios of k(center, .) at probes on the sphere.

    For each probe x and direction u the report holds
    (k(x0, x+hu) + k(x0, x-hu) - 2 k(x0, x)) / h over the h schedule
    (fractions of d(x, boundary)); directions are the sphere tangent,
    normal, and the two diagonals.  Ratios tending to zero are the
    numerical signature of a C^1 ball.  All solver evaluations run as one
    tight batch at ``PROBE_SOLVER`` and 49 vertices, so per-point wobble
    stays far below the second differences; ``k_eval`` may inject a
    closed form instead.  Each probe must lie at least a tenth of
    d(center, boundary) from the boundary and from the center.
    """
    center = np.asarray(center, dtype=float)
    if domain.dimension != 2:
        raise InvalidInputError("smoothness probing is planar")
    if not domain.is_convex:
        raise InvalidInputError("smoothness probing assumes a convex domain")
    d_center = domain.boundary_distance(center)

    if isinstance(probes, int):
        n_probe = probes
        # half-step offset keeps default probes off the domain's symmetry
        # axes, where weight seams cut the Hoelder exponent of k to 1/2
        angles = (np.arange(n_probe) + 0.5) * 2.0 * np.pi / n_probe
        dtheta = 1e-3
        all_angles = np.concatenate([angles, angles + dtheta, angles - dtheta])
        U = np.stack([np.cos(all_angles), np.sin(all_angles)], axis=1)
        if k_eval is None:
            radii = directional_radii(domain, center, U, r, vertex_count=_PROBE_VERTICES)
        else:
            radii = np.array([_oracle_radius(domain, center, u, r, k_eval) for u in U])
        pts_all = center[None, :] + radii[:, None] * U
        probe_pts = pts_all[:n_probe]
        tangents = pts_all[n_probe:2 * n_probe] - pts_all[2 * n_probe:]
        tangents = tangents / np.sqrt((tangents * tangents).sum(axis=1, keepdims=True))
    else:
        probe_pts = np.atleast_2d(np.asarray(probes, dtype=float))
        rel = probe_pts - center
        tangents = np.stack([-rel[:, 1], rel[:, 0]], axis=1)
        tangents = tangents / np.sqrt((tangents * tangents).sum(axis=1, keepdims=True))

    depths = domain.boundary_distance_many(probe_pts)
    sep = np.sqrt(((probe_pts - center) ** 2).sum(axis=1))
    if (depths < 0.1 * d_center).any() or (sep < 0.1 * d_center).any():
        raise ProbeRejectedError("a probe violates the separation hypothesis")

    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    diag1 = (tangents + normals) / np.sqrt(2.0)
    diag2 = (tangents - normals) / np.sqrt(2.0)
    dirs_all = np.stack([tangents, normals, diag1, diag2], axis=1)  # (P, 4, 2)

    sched = np.asarray(h_schedule, dtype=float)
    Pn, Dn, Hn = probe_pts.shape[0], 4, sched.size
    habs = depths[:, None] * sched[None, :]  # (P, H)
    plus = probe_pts[:, None, None, :] + habs[:, None, :, None] * dirs_all[:, :, None, :]
    minus = probe_pts[:, None, None, :] - habs[:, None, :, None] * dirs_all[:, :, None, :]
    targets = np.concatenate([probe_pts, plus.reshape(-1, 2), minus.reshape(-1, 2)])
    if k_eval is None:
        ctr = np.broadcast_to(center, targets.shape)
        kv, _, _ = solve_batch(domain, ctr, targets, PROBE_SOLVER,
                               vertex_count=_PROBE_VERTICES, relax_sweeps=4)
    else:
        kv = np.array([k_eval(t) for t in targets])
    k0 = kv[:Pn]
    kp = kv[Pn:Pn + Pn * Dn * Hn].reshape(Pn, Dn, Hn)
    km = kv[Pn + Pn * Dn * Hn:].reshape(Pn, Dn, Hn)
    ratios = np.abs(kp + km - 2.0 * k0[:, None, None]) / habs[:, None, :]
    return SmoothnessReport(
        probes=probe_pts, directions=dirs_all, h_schedule=tuple(sched),
        ratios=ratios, base_values=k0, meta={"probe_depths": depths, "level": float(r)},
    )


def _oracle_radius(domain, center, u, level, k_eval):
    lo, hi = 1e-9, _boundary_ray_limits(domain, center, u)[0] * (1 - 1e-9)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if k_eval(center + mid * u) <= level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def convexity_check(field: DistanceField, r, domain, samples=1000):
    """Midpoint test for ball convexity.

    Pairs are drawn inside B_k(center, r) with a seeded generator; the
    verdict re-evaluates both endpoints and the midpoint with the solver
    (``FIELD_SOLVER``, 25 vertices; field interpolation only pre-screens)
    and flags a midpoint more than 1e-3 above r.  Returns the violation
    list; empty means pass.  Raises on non-convex domains: the hypothesis
    gate belongs to the caller.
    """
    rng = np.random.default_rng(0)
    if not domain.is_convex:
        raise InvalidInputError("convexity check applies to convex domains only")
    finite = np.isfinite(field.values)
    lowmask = finite & (field.values < r)
    ii, jj = np.nonzero(lowmask)
    if ii.size < 4:
        raise FieldError("ball footprint too small at this resolution")
    pts = np.stack([field.xs[ii], field.ys[jj]], axis=1)
    pick = rng.integers(0, pts.shape[0], size=(samples, 2))
    a = pts[pick[:, 0]] + rng.uniform(-0.4, 0.4, (samples, 2)) * field.h
    b = pts[pick[:, 1]] + rng.uniform(-0.4, 0.4, (samples, 2)) * field.h
    ka = field.interp(a)
    kb = field.interp(b)
    screen = 3.0 * field.h
    ok = np.isfinite(ka) & np.isfinite(kb) & (ka < r - screen) & (kb < r - screen)
    a, b = a[ok], b[ok]
    mid = 0.5 * (a + b)
    all_pts = np.concatenate([a, b, mid])
    ctr3 = np.broadcast_to(field.center, all_pts.shape)
    kvals, _, _ = solve_batch(domain, ctr3, all_pts, FIELD_SOLVER, vertex_count=25,
                              relax_sweeps=1)
    n = a.shape[0]
    ka, kb, km = kvals[:n], kvals[n:2 * n], kvals[2 * n:]
    viol = (ka <= r) & (kb <= r) & (km > r + 1e-3)
    out = []
    for i in np.nonzero(viol)[0]:
        out.append({"a": a[i].tolist(), "b": b[i].tolist(),
                    "mid": mid[i].tolist(), "k_mid": float(km[i]), "level": float(r)})
    return out


def _qh_arclength_point(domain, path, frac):
    """Point at the given fraction of quasihyperbolic arclength."""
    V = path.vertices
    seg = V[1:] - V[:-1]
    lens = np.sqrt((seg * seg).sum(axis=1))
    mids = 0.5 * (V[1:] + V[:-1])
    w = 1.0 / domain.boundary_distance_many(mids)
    qh = lens * w
    cum = np.concatenate([[0.0], np.cumsum(qh)])
    target = frac * cum[-1]
    i = int(np.searchsorted(cum, target, side="right") - 1)
    i = min(max(i, 0), len(lens) - 1)
    t = (target - cum[i]) / max(qh[i], 1e-300)
    return V[i] + np.clip(t, 0.0, 1.0) * seg[i]


def orthogonality_ratio(domain, x, t_schedule, contour: BallContour, geodesic):
    """d(gamma(t), sphere) / ||gamma(t) - gamma(1)|| along the geodesic
    polyline ``geodesic`` from the sphere's center to x on it.

    The series must approach 1 as t -> 1: geodesic radii meet the spheres
    they end on orthogonally.  The contour resolution certificate requires
    grid spacing at most a tenth of the smallest separation in use.
    """
    x = np.asarray(x, dtype=float)
    pts = []
    seps = []
    for t in t_schedule:
        p = _qh_arclength_point(domain, geodesic, t)
        pts.append(p)
        seps.append(float(np.linalg.norm(p - x)))
    min_sep = min(seps)
    if contour.h > min_sep / 10.0 + 1e-12:
        raise ResolutionError(
            f"contour spacing {contour.h} too coarse for separation {min_sep}"
        )
    dists = contour_point_distance(contour, np.array(pts))
    return np.array([d / sep for d, sep in zip(dists, seps)])


def cusp_free_check(domain, x, r, y, z_schedule=(0.3, 0.5, 0.7),
                    samples=40, rng_seed=0, tol=1e-3, geodesic=None):
    """Ambient-ball inclusion along a geodesic radius.

    For each z on the geodesic from x to y (y on the sphere of radius r),
    the Euclidean ball around z of radius |z-y|/(1+u), u = |z-y|/d(z),
    must lie inside B_k(x, r).  Samples cover the ball boundary and
    interior, solved at ``DEFAULT_SOLVER`` and 33 vertices; the report
    lists the worst margin per z.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(rng_seed)
    if geodesic is None:
        res = qh_distance(domain, x, y)
        if not res.converged:
            raise QHError("geodesic solve did not converge")
        geodesic = res.path
    report = []
    for frac in z_schedule:
        z = _qh_arclength_point(domain, geodesic, frac)
        gap = float(np.linalg.norm(z - y))
        if gap < 1e-14:
            report.append({"z": z.tolist(), "radius": 0.0, "max_k": 0.0,
                           "violations": 0, "samples": 0})
            continue
        u_val = gap / domain.boundary_distance(z)
        rho = gap / (1.0 + u_val)
        n_ring = max(8, samples // 2)
        angles = np.linspace(0.0, 2 * np.pi, n_ring, endpoint=False)
        ring = z[None, :] + rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        n_in = samples - n_ring
        rr = rho * np.sqrt(rng.uniform(0, 1, n_in))
        aa = rng.uniform(0, 2 * np.pi, n_in)
        interior = z[None, :] + np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=1)
        T = np.concatenate([ring, interior])
        ctr = np.broadcast_to(x, T.shape)
        kv, _, _ = solve_batch(domain, ctr, T, DEFAULT_SOLVER, vertex_count=33,
                               relax_sweeps=1)
        viol = int((kv >= r + tol).sum())
        report.append({
            "z": z.tolist(), "radius": float(rho), "u": float(u_val),
            "max_k": float(kv.max()), "level": float(r),
            "violations": viol, "samples": int(T.shape[0]),
        })
    return report
