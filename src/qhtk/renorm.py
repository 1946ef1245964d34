"""Norms induced by centered quasihyperbolic balls of symmetric convex domains.

The gauge M(x) = inf{lambda > 0 : x in lambda B} of a centered ball
B = B_k(0, r) is an equivalent norm; as r grows the ball fills the domain,
so the induced norms converge to the norm whose open unit ball the domain
is.  Everything here reduces to directional radii of the ball, evaluated
by batched bisection against the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .ball import RADIUS_SOLVER, _boundary_ray_limits, _resample_loop, directional_radii
from .batch import solve_batch
from .geometry import InvalidInputError, QHError


class ConfigurationError(QHError):
    """The domain does not satisfy the renorming hypotheses."""


class InducedNorm:
    """Minkowski functional of the centered ball B_k(0, r).

    Evaluation is by directional radius: M(x) = |x| / rho(x/|x|) where
    rho(u) solves k(0, rho u) = r (centered balls of symmetric convex
    domains are star-shaped about 0), found by ``directional_radii``.
    Radii are cached per direction.  Construction solves the precheck
    directions, their mirrors and the planar table's knots in one
    ``directional_radii`` call, which is batch-invariant.
    """

    eval_tol = 4e-4  # error budget of one evaluation, table interpolation included

    def __init__(self, domain, r, precheck_pairs=100, rng_seed=0, table=256):
        if not domain.is_convex:
            raise ConfigurationError("induced norms need a convex domain")
        lo, hi = domain.window_hint()
        if any(b is None or not np.isfinite(b) for b in lo + hi):
            raise ConfigurationError("induced norms need a bounded domain")
        if not domain.contains(np.zeros(domain.dimension)):
            raise ConfigurationError("the domain must contain the origin")
        self.domain = domain
        self.r = float(r)
        self._cache = {}
        self._spline = None
        dim = domain.dimension
        rng = np.random.default_rng(rng_seed)
        if dim == 2:
            th = rng.uniform(0, 2 * np.pi, 8)
            U = np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            U = rng.normal(size=(8, dim))
            U /= np.sqrt((U * U).sum(axis=1, keepdims=True))
        knot_th = np.linspace(0.0, 2.0 * np.pi, int(table) if table and dim == 2 else 0,
                              endpoint=False)
        knots = np.stack([np.cos(knot_th), np.sin(knot_th)], axis=1).reshape(-1, dim)
        # cache what radii(U) and then radii(-U) would; the knots stay out
        # of the cache, so exact queries along them still solve afresh
        Up, keys_p = self._unit_keys(U)
        Um, keys_m = self._unit_keys(-U)
        miss_m = [i for i, k in enumerate(keys_m) if k not in keys_p]
        keys = keys_p + [keys_m[i] for i in miss_m]
        rho = self._solve(np.concatenate([Up, Um[miss_m], knots]))
        self._cache.update(zip(keys, map(float, rho[:len(keys)])))
        self._check_symmetry_and_convexity(U, keys_p, keys_m, precheck_pairs, rng)
        if knot_th.size:
            # the radius is a smooth periodic function of the angle, so a
            # cubic spline over the knots interpolates far below eval_tol
            from scipy.interpolate import CubicSpline

            rho = rho[len(keys):]
            self._spline = CubicSpline(np.append(knot_th, 2.0 * np.pi), np.append(rho, rho[0]),
                                       bc_type="periodic")

    # -- hypothesis gates ---------------------------------------------------

    def _check_symmetry_and_convexity(self, U, keys_p, keys_m, pairs, rng):
        rad_p = np.array([self._cache[k] for k in keys_p])
        rad_m = np.array([self._cache[k] for k in keys_m])
        if np.abs(rad_p - rad_m).max() > 1e-3 * max(rad_p.max(), 1e-12):
            raise ConfigurationError("ball is not symmetric: domain must be symmetric")
        # midpoint convexity of the ball on sampled pairs, re-solved
        if pairs > 0:
            a_dir = rng.integers(0, U.shape[0], pairs)
            b_dir = rng.integers(0, U.shape[0], pairs)
            ta = np.sqrt(rng.uniform(0, 1, pairs))
            tb = np.sqrt(rng.uniform(0, 1, pairs))
            A = (ta * rad_p[a_dir] * 0.98)[:, None] * U[a_dir]
            B = (tb * rad_p[b_dir] * 0.98)[:, None] * U[b_dir]
            mid = 0.5 * (A + B)
            ctr = np.zeros_like(mid)
            kv, _, _ = solve_batch(self.domain, ctr, mid, RADIUS_SOLVER,
                                   vertex_count=25, relax_sweeps=1)
            if (kv > self.r + 1e-3).any():
                raise ConfigurationError(
                    "sampled midpoint left the ball: convexity prerequisite failed"
                )

    # -- evaluation ----------------------------------------------------------

    @staticmethod
    def _unit_keys(dirs):
        """Unit directions and their cache keys."""
        U = np.atleast_2d(np.asarray(dirs, dtype=float))
        U = U / np.sqrt((U * U).sum(axis=1, keepdims=True))
        return U, [tuple(np.round(u, 12)) for u in U]

    def _solve(self, U):
        return directional_radii(self.domain, np.zeros(self.domain.dimension), U, self.r)

    def radii(self, dirs):
        """Directional radii of the ball, cached per unit direction."""
        U, keys = self._unit_keys(dirs)
        missing = [i for i, k in enumerate(keys) if k not in self._cache]
        if missing:
            vals = self._solve(U[missing])
            self._cache.update(zip([keys[i] for i in missing], map(float, vals)))
        return np.array([self._cache[k] for k in keys])

    def eval_many(self, X, exact=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nn = np.sqrt((X * X).sum(axis=1))
        out = np.zeros(X.shape[0])
        nz = nn > 0
        if nz.any():
            if self._spline is not None and not exact:
                th = np.mod(np.arctan2(X[nz, 1], X[nz, 0]), 2.0 * np.pi)
                out[nz] = nn[nz] / self._spline(th)
            else:
                out[nz] = nn[nz] / self.radii(X[nz] / nn[nz, None])
        return out

    def eval(self, x):
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])


def minkowski_eval(norm: InducedNorm, x):
    """Gauge value of x; 0 iff x = 0."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InvalidInputError("non-finite input")
    return norm.eval(x)


def triangle_check(norm: InducedNorm, samples=1000, rng_seed=0):
    """Sampled triangle inequality M(x+y) <= M(x) + M(y) + 3 eval_tol.

    x and y are normal draws scaled by 0.8 times a uniform factor in
    [0.2, 1].  Returns the violation list (empty = pass); the slack covers
    the bisection and solver tolerance of the three evaluations.
    """
    rng = np.random.default_rng(rng_seed)
    dim = norm.domain.dimension
    X = rng.normal(size=(samples, dim))
    Y = rng.normal(size=(samples, dim))
    X *= 0.8 * rng.uniform(0.2, 1.0, (samples, 1))
    Y *= 0.8 * rng.uniform(0.2, 1.0, (samples, 1))
    Mx = norm.eval_many(X)
    My = norm.eval_many(Y)
    Ms = norm.eval_many(X + Y)
    slack = 3.0 * norm.eval_tol * np.maximum(Mx + My, 1.0)
    bad = Ms > Mx + My + slack
    return [
        {"x": X[i].tolist(), "y": Y[i].tolist(),
         "M_x": float(Mx[i]), "M_y": float(My[i]), "M_sum": float(Ms[i])}
        for i in np.nonzero(bad)[0]
    ]


def symmetric_hausdorff(A, B):
    from scipy.spatial import cKDTree

    ta, tb = cKDTree(A), cKDTree(B)
    return float(max(tb.query(A)[0].max(), ta.query(B)[0].max()))


def hausdorff_convergence(domain, radii, directions=128):
    """Hausdorff gap between the sphere of B_k(0, r) and the domain sphere.

    The domain is the open unit ball of its own gauge norm; as r grows the
    centered quasihyperbolic spheres converge to the domain sphere, so the
    returned series decreases toward 0.  Both spheres are polygons over
    ``directions`` rays, resampled to 2048 points each.
    """
    if domain.dimension != 2:
        raise InvalidInputError("Hausdorff series is computed on planar domains")
    if not domain.is_convex:
        raise InvalidInputError("Hausdorff series need a convex domain")
    th = np.linspace(0, 2 * np.pi, directions, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    # the domain's gauge radius along each ray
    U_unit = U / np.sqrt((U * U).sum(axis=1, keepdims=True))
    R_dom = _boundary_ray_limits(domain, np.zeros(2), U_unit)
    dom_curve = _resample_loop(R_dom[:, None] * U, lambda _: 2048)
    out = []
    for r in radii:
        rho = directional_radii(domain, np.zeros(2), U, float(r))
        ball_curve = _resample_loop(rho[:, None] * U, lambda _: 2048)
        out.append(symmetric_hausdorff(ball_curve, dom_curve))
    return np.array(out)


@dataclass
class ModulusEstimate:
    """Sampled modulus of convexity or smoothness of an induced norm.

    One-sided by construction: the convexity values bound the true modulus
    from above (an inf over a sample), the smoothness values from below
    (a sup over a sample).
    """

    kind: str
    taus: np.ndarray
    values: np.ndarray
    sample_count: int
    meta: dict = dfield(default_factory=dict)


def modulus_estimate(norm: InducedNorm, kind, taus, sample_budget=400, rng_seed=0):
    """delta(tau) = inf {1 - M((x+y)/2)} over unit pairs with M(x-y) >= tau,
    or the restricted smoothness modulus
    mu(tau) = sup {(M(y+h) + M(y-h))/2 - 1 : M(y+-h) >= M(y) = 1, |h| = tau}.
    """
    if kind not in ("convexity", "smoothness"):
        raise InvalidInputError("kind must be 'convexity' or 'smoothness'")
    if sample_budget < 1:
        raise InvalidInputError("sample budget must be positive")
    if norm.domain.dimension != 2:
        raise InvalidInputError("moduli are sampled on planar norms")
    rng = np.random.default_rng(rng_seed)
    dim = norm.domain.dimension
    taus = np.asarray(taus, dtype=float)

    n_struct = min(64, sample_budget)
    th = np.linspace(0, 2 * np.pi, n_struct, endpoint=False)
    U_struct = np.stack([np.cos(th), np.sin(th)], axis=1)
    U_rand = rng.normal(size=(max(sample_budget - n_struct, 0), dim))
    if U_rand.size:
        U_rand /= np.sqrt((U_rand * U_rand).sum(axis=1, keepdims=True))
        U = np.vstack([U_struct, U_rand])
    else:
        U = U_struct
    unit = U / norm.eval_many(U)[:, None]  # M(unit) = 1

    if kind == "convexity":
        n = unit.shape[0]
        ia = rng.integers(0, n, sample_budget)
        ib = rng.integers(0, n, sample_budget)
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
        X, Y = unit[ia], unit[ib]
        sep = norm.eval_many(X - Y)
        midv = norm.eval_many(0.5 * (X + Y))
        vals = []
        for tau in taus:
            mask = sep >= tau
            vals.append(float((1.0 - midv[mask]).min()) if mask.any() else np.nan)
        values = np.array(vals)
        # inf over a shrinking feasible set: non-decreasing by construction
    else:
        n = unit.shape[0]
        H = rng.normal(size=(sample_budget, dim))
        H /= np.sqrt((H * H).sum(axis=1, keepdims=True))
        iy = rng.integers(0, n, sample_budget)
        Yp = unit[iy]
        vals = []
        for tau in taus:
            Hp = tau * H
            Mp = norm.eval_many(Yp + Hp)
            Mm = norm.eval_many(Yp - Hp)
            ok = (Mp >= 1.0) & (Mm >= 1.0)  # the restricted modulus variant
            v = 0.5 * (Mp + Mm) - 1.0
            vals.append(float(v[ok].max()) if ok.any() else 0.0)
        values = np.array(vals)
    return ModulusEstimate(kind=kind, taus=taus, values=values,
                           sample_count=int(sample_budget),
                           meta={"rng_seed": rng_seed, "r": norm.r})
