"""Concrete showcase constructions and their verdicts.

Each verdict rebuilds one of the toolkit's reference geometries (rectangle
with removed points and slits, the corridor polygon, the separable-space
section, the star-like 3-D set), runs the relevant solves, and records
measured quantities against stated tolerances.  Verdicts are deterministic
for a fixed seed and config.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield

import numpy as np

from .geometry import (
    BoxPrimitive,
    DomainSpec,
    InvalidInputError,
    Polyline,
    RemovedPoint,
    RemovedSegment,
    StarlikeDomain3D,
    l2_section,
    prolongation_polygon,
    punctured_space,
)
from .metric import adaptive_simpson
from .solver import (
    DEFAULT_SOLVER,
    RefinementConfig,
    SolverConfig,
    _raise_first,
    dedupe_geodesics,
    grid_init,
    refine_paths,
)

SQRT3 = float(np.sqrt(3.0))

OMEGA_SOLVER = {
    3: SolverConfig(vertex_budget=65, refinement=RefinementConfig(
        max_iterations=60, gradient_tol=5e-4)),
    4: SolverConfig(vertex_budget=97, refinement=RefinementConfig(
        max_iterations=60, gradient_tol=5e-4)),
    5: SolverConfig(vertex_budget=129, refinement=RefinementConfig(
        max_iterations=60, gradient_tol=5e-4)),
}
PROLONGATION_SOLVER = SolverConfig(vertex_budget=97, refinement=RefinementConfig(
    max_iterations=80, gradient_tol=5e-4))
STARLIKE_SOLVER = SolverConfig(vertex_budget=65, refinement=RefinementConfig(
    max_iterations=80, gradient_tol=5e-4))


@dataclass
class ExampleVerdict:
    example_id: str
    claim: str
    measured: dict
    tolerances: dict
    passed: bool
    artifacts: dict = dfield(default_factory=dict)

    def summary(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.example_id}: {self.claim}"


# ---------------------------------------------------------------------------
# the rectangle-with-obstacles family
# ---------------------------------------------------------------------------

def build_omega_n(n):
    """Rectangle (-1, (n-2) sqrt3 + 1) x (-1, 1) minus n-1 points on the axis
    at multiples of sqrt3 and minus two closed half-slits (|y| >= 1/2) on
    each of the n-2 columns halfway between consecutive removed points.

    n = 2 degenerates to the punctured plane, where the two half-circle
    geodesics already meet exactly twice.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if n == 2:
        return punctured_space(2)
    right = (n - 2) * SQRT3 + 1.0
    removals = [RemovedPoint((j * SQRT3, 0.0)) for j in range(n - 1)]
    for j in range(n - 2):
        c = (2 * j + 1) * SQRT3 / 2.0
        removals.append(RemovedSegment((c, 0.5), (c, 1.0)))
        removals.append(RemovedSegment((c, -0.5), (c, -1.0)))
    return DomainSpec(
        2, (BoxPrimitive((-1.0, -1.0), (right, 1.0)),), tuple(removals),
        name=f"omega-{n}",
    )


def omega_endpoints(n):
    return np.array([-0.5, 0.0]), np.array([(n - 2) * SQRT3 + 0.5, 0.0])


def sign_pattern_seed(n, signs):
    """Waypoint seed passing above (+1) or below (-1) each removed point,
    threading every slit gap on the axis."""
    if len(signs) != n - 1:
        raise InvalidInputError("one sign per removed point")
    x, y = omega_endpoints(n)
    pts = [x]
    for j in range(n - 1):
        p = j * SQRT3
        sgn = 1.0 if signs[j] > 0 else -1.0
        pts += [[p - 0.35, 0.35 * sgn], [p, 0.52 * sgn], [p + 0.35, 0.35 * sgn]]
        if j < n - 2:
            pts.append([(2 * j + 1) * SQRT3 / 2.0, 0.0])
    pts.append(y)
    return Polyline(np.array(pts, dtype=float))


def count_polyline_intersections(p1: Polyline, p2: Polyline):
    """Clustered intersection count of two polylines.

    Both curves are resampled to 6000 vertices; sample points of one
    within 5e-3 of the other form contact runs (consecutive samples merge,
    which absorbs tangential touches), and runs whose representative
    points fall within 1e-3 of each other merge as well.  Returns
    (count, representative points).
    """
    from scipy.spatial import cKDTree

    A = p1.resample(6000).vertices
    B = p2.resample(6000).vertices
    d = cKDTree(B).query(A)[0]
    mask = d < 5e-3
    if not mask.any():
        return 0, np.zeros((0, A.shape[1]))
    runs = np.diff(np.r_[0, mask.astype(int), 0])
    starts = np.nonzero(runs == 1)[0]
    ends = np.nonzero(runs == -1)[0]
    reps = []
    for a, b in zip(starts, ends):
        # tangential contacts produce a flat run of near-zero distances;
        # its midpoint is the symmetric estimate of the touch point
        j = (a + b - 1) // 2
        reps.append(A[j])
    reps = np.array(reps)
    # merge representatives closer than the clustering radius
    kept = []
    for p in reps:
        if not kept or min(np.linalg.norm(p - q) for q in kept) > 1e-3:
            kept.append(p)
    return len(kept), np.array(kept)


def verify_intersection_count(n):
    """The reflected geodesic pair between the axis endpoints meets exactly
    n times: at both endpoints and on the axis at every slit column."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    dom = build_omega_n(n)
    if n == 2:
        s = DEFAULT_SOLVER
        up = Polyline(np.stack([np.cos(np.linspace(np.pi, 0, 9)),
                                np.sin(np.linspace(np.pi, 0, 9))], axis=1))
        seeds = [up, up.mirrored(1)]
        expected_absc = np.array([-1.0, 1.0])
    else:
        s = OMEGA_SOLVER.get(n, OMEGA_SOLVER[5])
        seeds = [sign_pattern_seed(n, [sgn] * (n - 1)) for sgn in (1, -1)]
        expected_absc = np.concatenate([
            [-0.5], (2 * np.arange(1, n - 1) - 1) * SQRT3 / 2.0,
            [(n - 2) * SQRT3 + 0.5],
        ])
    g1, g2 = _raise_first(refine_paths(dom, seeds, s))
    count, reps = count_polyline_intersections(g1.path, g2.path)
    mirror_sup = float(np.abs(
        g1.path.mirrored(1).resample(400).vertices - g2.path.resample(400).vertices
    ).max())
    absc = np.sort(reps[:, 0]) if len(reps) else np.array([])
    absc_ok = (
        len(absc) == len(expected_absc)
        and bool(np.abs(absc - expected_absc).max() < 5e-3)
    )
    passed = (
        count == n and absc_ok and mirror_sup < 1e-4
        and g1.converged and g2.converged
    )
    return ExampleVerdict(
        example_id=f"intersections-{n}",
        claim=f"reflected geodesic pair crosses exactly {n} times",
        measured={
            "count": count,
            "abscissae": absc.tolist(),
            "expected_abscissae": expected_absc.tolist(),
            "mirror_sup": mirror_sup,
            "lengths": [g1.qh_length, g2.qh_length],
            "converged": [g1.converged, g2.converged],
        },
        tolerances={"abscissae": 5e-3, "mirror_sup": 1e-4},
        passed=bool(passed),
        artifacts={"gamma1": g1.path.vertices.tolist(),
                   "gamma2": g2.path.vertices.tolist()},
    )


def enumerate_sign_geodesics(n):
    """All 2^(n-1) over/under choices refine to distinct geodesics of one
    common length."""
    if n < 3:
        raise InvalidInputError("sign patterns need n >= 3")
    dom = build_omega_n(n)
    seeds = [sign_pattern_seed(n, signs) for signs in itertools.product([1, -1], repeat=n - 1)]
    results = _raise_first(refine_paths(dom, seeds, OMEGA_SOLVER.get(n, OMEGA_SOLVER[5])))
    lengths = np.array([r.qh_length for r in results])
    conv = [bool(r.converged) for r in results]
    distinct = dedupe_geodesics(results)
    spread = float(lengths.max() - lengths.min())
    expected = 2 ** (n - 1)
    passed = (
        len(results) == expected and len(distinct) == expected
        and spread < 1e-3 and all(conv)
    )
    return ExampleVerdict(
        example_id=f"sign-geodesics-{n}",
        claim=f"{expected} equal-length geodesics, one per sign pattern",
        measured={
            "count_refined": len(results),
            "count_distinct": len(distinct),
            "length_spread": spread,
            "lengths": lengths.tolist(),
            "converged": conv,
        },
        tolerances={"length_spread": 1e-3},
        passed=bool(passed),
        artifacts={"paths": [r.path.vertices.tolist() for r in results]},
    )


# ---------------------------------------------------------------------------
# corridor polygon: short geodesics without unique prolongation
# ---------------------------------------------------------------------------

def polygon_prolongation_check(t):
    """k equals the corridor parameter t, and the geodesic through the
    corridor mouth extends to both notch corners."""
    from scipy.spatial import cKDTree

    if not (0.0 < t <= 1.0):
        raise InvalidInputError("t must lie in (0, 1]")
    dom = prolongation_polygon()
    x = np.array([-t - 1.0, 0.0])
    y = np.array([-1.0, 0.0])
    seeds = [grid_init(dom, x, z, PROLONGATION_SOLVER)
             for z in (y, np.array([0.0, 1.0]), np.array([0.0, -1.0]))]
    base, g1, g2 = _raise_first(refine_paths(dom, seeds, PROLONGATION_SOLVER))
    straight_dev = float(np.abs(base.path.vertices[:, 1]).max())
    A = g1.path.resample(3000).vertices
    B = g2.path.resample(3000).vertices
    d1 = float(np.sqrt(((A - y) ** 2).sum(axis=1)).min())
    d2 = float(np.sqrt(((B - y) ** 2).sum(axis=1)).min())
    postA = A[A[:, 0] > -1.0 + 1e-9]
    postB = B[B[:, 0] > -1.0 + 1e-9]
    post_sup = float(cKDTree(postB).query(postA)[0].max()) if len(postA) and len(postB) else 0.0
    passed = (
        abs(base.qh_length - t) <= 1e-4
        and straight_dev < 1e-3
        and d1 < 1e-3 and d2 < 1e-3
        and post_sup > 0.5
        and base.converged and g1.converged and g2.converged
    )
    return ExampleVerdict(
        example_id=f"prolongation-t{t}",
        claim="corridor distance equals t; prolongations split at the mouth",
        measured={
            "k": base.qh_length, "t": float(t),
            "straight_deviation": straight_dev,
            "pass_through_y": [d1, d2],
            "post_mouth_divergence": post_sup,
            "k_to_corners": [g1.qh_length, g2.qh_length],
        },
        tolerances={"k": 1e-4, "through_y": 1e-3, "divergence_min": 0.5},
        passed=bool(passed),
        artifacts={"base": base.path.vertices.tolist(),
                   "to_upper": g1.path.vertices.tolist(),
                   "to_lower": g2.path.vertices.tolist()},
    )


# ---------------------------------------------------------------------------
# the separable-space half-circle lengths
# ---------------------------------------------------------------------------

def l2_halfcircle_length(n, diagonal=True):
    """Length of the half circle from e1 to -e1 through the diagonal
    section span{e1, (e_n + e_{n+1})/sqrt2} (or the plane span{e1, e_n}).

    The curve is unit speed, so the length is the integral of the
    reciprocal distance to the removed set, evaluated exactly through the
    certified family oracle, to 1e-10 absolute and relative.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    dom = l2_section(n)
    dim = dom.dimension

    def dvals(phis):
        pts = np.zeros((phis.size, dim))
        pts[:, 0] = np.cos(phis)
        if diagonal:
            pts[:, n - 1] = np.sin(phis) / np.sqrt(2.0)
            pts[:, n] = np.sin(phis) / np.sqrt(2.0)
        else:
            pts[:, n - 1] = np.sin(phis)
        return dom.depth_many(pts)

    return adaptive_simpson(lambda _, p: 1.0 / dvals(p), [0.0], [np.pi],
                            1e-10, 1e-10, max_depth=40)


def l2_nongeodesic_lengths(n_max=12):
    """The half-circle lengths decrease strictly toward pi but stay above
    it: the infimum between the antipodes is never attained."""
    if n_max < 3:
        raise InvalidInputError("need n_max >= 3")
    ns = list(range(2, n_max + 1))
    lengths = np.array([l2_halfcircle_length(n) for n in ns])
    gaps = lengths - np.pi
    decreasing = bool((np.diff(lengths) < 0).all())
    above = bool((gaps > 0).all())
    trend_ok = True
    if n_max >= 12:
        g3 = gaps[ns.index(3)]
        g12 = gaps[ns.index(12)]
        trend_ok = bool(g12 < g3 / 3.0)
    step_ratios = (gaps[1:] / gaps[:-1]).tolist()
    passed = decreasing and above and trend_ok
    return ExampleVerdict(
        example_id=f"l2-lengths-{n_max}",
        claim="half-circle lengths strictly decrease toward pi from above",
        measured={
            "n": ns,
            "lengths": lengths.tolist(),
            "gaps": gaps.tolist(),
            "step_ratios": step_ratios,
            "decreasing": decreasing,
            "above_pi": above,
        },
        tolerances={"gap_shrink_3_to_12": "factor 3"},
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# star-like 3-D set: non-unique geodesics, ridge-free weight
# ---------------------------------------------------------------------------

def starlike3d_nonuniqueness():
    """Two geodesics around the deleted axis ray, plus the weight profile
    on a lattice of spacing 0.05: 1/d has no strict local maxima (by more
    than 1e-6) and its infimum 2 (max d = 1/2) is attained on the ridge
    surface."""
    dom = StarlikeDomain3D()
    grid_h = 0.05
    x = np.array([0.5, 0.0, 1.0])
    y = np.array([-0.5, 0.0, 1.0])
    seeds = [Polyline(np.array([x, [0.35, 0.35 * sgn, 1.0], [0.0, 0.5 * sgn, 1.0],
                                [-0.35, 0.35 * sgn, 1.0], y])) for sgn in (1.0, -1.0)]
    g1, g2 = _raise_first(refine_paths(dom, seeds, STARLIKE_SOLVER))
    A = g1.path.resample(400).vertices
    B = g2.path.resample(400).vertices
    sup_sep = float(np.abs(A - B).max())
    mirror = A.copy()
    mirror[:, 1] = -mirror[:, 1]
    mirror_sup = float(np.abs(mirror - B).max())
    len_gap = abs(g1.qh_length - g2.qh_length)

    # weight landscape on a grid window (the domain is unbounded above;
    # translation invariance makes the window representative)
    xs = np.arange(-0.975, 1.0, grid_h)
    ys = np.arange(-0.975, 1.0, grid_h)
    zs = np.arange(-0.55, 2.0, grid_h)
    G = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    depth = dom.depth_many(G)
    inside = depth > 0
    shape = (len(xs), len(ys), len(zs))
    dvol = np.full(shape, np.nan).reshape(-1)
    dvol[inside] = depth[inside]
    dvol = dvol.reshape(shape)
    w = 1.0 / dvol
    # strict local maxima of the weight: larger than all 26 neighbors,
    # tested only where the whole neighborhood lies inside the domain
    # (points hugging the boundary have no meaningful outward comparison)
    best_nbr = np.full([n - 2 for n in w.shape], -np.inf)
    all_inside = np.isfinite(w[1:-1, 1:-1, 1:-1])
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                nb = w[1 + dx:w.shape[0] - 1 + dx,
                       1 + dy:w.shape[1] - 1 + dy,
                       1 + dz:w.shape[2] - 1 + dz]
                all_inside &= np.isfinite(nb)
                best_nbr = np.fmax(best_nbr, nb)
    center_w = w[1:-1, 1:-1, 1:-1]
    strict = all_inside & (center_w > best_nbr + 1e-6)
    strict_max = int(strict.sum())
    max_d = float(np.nanmax(dvol))
    passed = (
        g1.converged and g2.converged
        and sup_sep > 0.5 and mirror_sup < 1e-3 and len_gap < 1e-3
        and strict_max == 0
        and abs(max_d - 0.5) < grid_h
    )
    return ExampleVerdict(
        example_id="starlike3d",
        claim="two symmetric geodesics around the deleted ray; reciprocal "
              "boundary distance has no strict local maxima and bottoms at 2",
        measured={
            "lengths": [g1.qh_length, g2.qh_length],
            "sup_separation": sup_sep,
            "mirror_sup": mirror_sup,
            "strict_weight_maxima": strict_max,
            "max_boundary_distance": max_d,
            "min_weight": 1.0 / max_d,
            "converged": [g1.converged, g2.converged],
        },
        tolerances={"length_gap": 1e-3, "mirror": 1e-3, "max_d": grid_h},
        passed=bool(passed),
        artifacts={"gamma1": g1.path.vertices.tolist(),
                   "gamma2": g2.path.vertices.tolist()},
    )


def all_verdicts(fast=False):
    """The full battery; ``fast`` trims sizes for smoke runs."""
    out = []
    ns = (3,) if fast else (3, 4, 5)
    for n in ns:
        out.append(verify_intersection_count(n))
        out.append(enumerate_sign_geodesics(n))
    for t in ((0.5,) if fast else (0.25, 0.5, 1.0)):
        out.append(polygon_prolongation_check(t))
    out.append(l2_nongeodesic_lengths(6 if fast else 12))
    out.append(starlike3d_nonuniqueness())
    return out
