"""The quasihyperbolic length functional and its closed-form oracles.

The length of a rectifiable path gamma is the integral of
||gamma'(t)|| / d(gamma(t), boundary); polyline paths are integrated by
one adaptive composite Simpson over all their segments at once.  Two
classical closed forms (half-space, punctured space) are kept as oracles
to be validated against the variational solver, never trusted over it.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    DomainViolationError,
    InvalidInputError,
    Polyline,
    QHError,
    _as_points,
    certify_segment,
)


class EvaluationError(QHError):
    """Quadrature could not reach tolerance or the path left the domain."""


# adaptive composite Simpson controls of every path-length integral
QUAD_ABS_TOL = 1e-8
QUAD_REL_TOL = 1e-8
QUAD_MAX_DEPTH = 24


def adaptive_simpson(f, t0, t1, abs_tol, rel_tol, max_depth):
    """Sum of adaptive Simpson integrals of ``f`` over the intervals [t0_i, t1_i].

    ``f(sid, t)`` evaluates the integrand of interval ``sid[k]`` at
    abscissa ``t[k]`` (1-D arrays).  All open subintervals are refined
    together.  The tolerance max(abs_tol, rel_tol * crude total) is shared
    equally by the intervals and halves at each bisection; a subinterval
    still above its share after ``max_depth`` bisections is accepted when
    within 8 times it, and otherwise raises EvaluationError.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    n = t0.size
    sid = np.arange(n)
    f0 = f(sid, t0)
    f1 = f(sid, t1)
    fm = f(sid, 0.5 * (t0 + t1))
    simpson = (t1 - t0) / 6.0 * (f0 + 4.0 * fm + f1)
    crude = float(np.abs(simpson).sum())
    tol = np.full(n, max(abs_tol, rel_tol * crude) / max(n, 1))
    depth = np.zeros(n, dtype=int)
    total = 0.0
    while sid.size:
        tm = 0.5 * (t0 + t1)
        tl = 0.5 * (t0 + tm)
        tr = 0.5 * (tm + t1)
        fl = f(sid, tl)
        fr = f(sid, tr)
        sl = (tm - t0) / 6.0 * (f0 + 4.0 * fl + fm)
        sr = (t1 - tm) / 6.0 * (fm + 4.0 * fr + f1)
        err = (sl + sr - simpson) / 15.0
        done = np.abs(err) <= tol
        exhausted = (~done) & (depth >= max_depth)
        if exhausted.any():
            if (np.abs(err[exhausted]) > 8 * tol[exhausted]).any():
                raise EvaluationError("adaptive quadrature exhausted subdivision depth")
            done |= exhausted
        total += float((sl + sr + err)[done].sum())
        keep = ~done
        sid = np.concatenate([sid[keep], sid[keep]])
        t0 = np.concatenate([t0[keep], tm[keep]])
        t1 = np.concatenate([tm[keep], t1[keep]])
        f0 = np.concatenate([f0[keep], fm[keep]])
        f1 = np.concatenate([fm[keep], f1[keep]])
        fm = np.concatenate([fl[keep], fr[keep]])
        simpson = np.concatenate([sl[keep], sr[keep]])
        tol = np.concatenate([0.5 * tol[keep], 0.5 * tol[keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
    return total


def qh_path_length(domain, path: Polyline):
    """Quasihyperbolic length of a polyline, to ``QUAD_ABS_TOL`` and ``QUAD_REL_TOL``.

    Preconditions: every vertex strictly inside; each segment certified to
    stay inside via the 1-Lipschitz bound on boundary distance (a segment
    shorter than the sum of endpoint distances cannot exit).
    """
    V = path.vertices
    # raises on a vertex outside the domain or of the wrong dimension
    d = domain.boundary_distance_many(V)
    seg = np.diff(V, axis=0)
    lens = np.sqrt(np.sum(seg * seg, axis=1))
    risky = ~(d[:-1] + d[1:] > lens)
    for i in np.nonzero(risky)[0]:
        if not certify_segment(domain, V[i], V[i + 1]):
            raise EvaluationError(f"segment {i} cannot be certified inside the domain")
    seg_norm = domain.norm.eval(seg)

    def integrand(sid, t):
        d = domain.depth_many(V[:-1][sid] + t[:, None] * seg[sid])
        if (d <= 0.0).any():
            raise EvaluationError("path exits the domain during quadrature")
        return seg_norm[sid] / d

    n = seg.shape[0]
    return adaptive_simpson(integrand, np.zeros(n), np.ones(n),
                            QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_MAX_DEPTH)


def qh_lower_bound(domain, x, y):
    """log(1 + ||x-y|| / d(., boundary)), maximized over both endpoints.

    Every admissible path from x to y is at least this long; the raw bound
    is asymmetric so both ends are tried.
    """
    X, _ = _as_points(x, domain.dimension)
    Y, _ = _as_points(y, domain.dimension)
    dx = domain.boundary_distance(x)
    dy = domain.boundary_distance(y)
    gap = float(domain.norm.eval((X - Y)[0]))
    return float(max(np.log1p(gap / dx), np.log1p(gap / dy)))


def halfplane_distance_oracle(x, y):
    """Hyperbolic distance in the upper half-space {x_n > 0}.

    2 asinh(||x - y|| / (2 sqrt(x_n y_n))); the classical closed form,
    written for stability at small separations.  Validated against the
    variational solver in the tests, not assumed.
    """
    X, _ = _as_points(x)
    Y, _ = _as_points(y)
    if X.shape[1] != Y.shape[1]:
        raise InvalidInputError("dimension mismatch")
    xn = float(X[0, -1])
    yn = float(Y[0, -1])
    if xn <= 0.0 or yn <= 0.0:
        raise DomainViolationError("points must lie strictly in the half-space")
    gap = float(np.linalg.norm(X[0] - Y[0]))
    return 2.0 * float(np.arcsinh(gap / (2.0 * np.sqrt(xn * yn))))


def punctured_distance_oracle(x, y):
    """Distance in R^n minus the origin: sqrt(theta^2 + log^2(|x|/|y|)).

    theta is the angle subtended at the deleted origin (<= pi).  Folklore
    formula consistent with half-circle geodesics; cross-checked against
    the solver rather than trusted.
    """
    X, _ = _as_points(x)
    Y, _ = _as_points(y)
    if X.shape[1] != Y.shape[1]:
        raise InvalidInputError("dimension mismatch")
    rx = float(np.linalg.norm(X[0]))
    ry = float(np.linalg.norm(Y[0]))
    if rx == 0.0 or ry == 0.0:
        raise DomainViolationError("origin is removed from the domain")
    u = X[0] / rx
    v = Y[0] / ry
    theta = 2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v))
    return float(np.hypot(theta, np.log(rx / ry)))
