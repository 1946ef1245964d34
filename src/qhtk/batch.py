"""Many independent geodesic solves in lockstep.

Distance fields, ball-membership sampling and directional-radius bisections
need thousands of short solves; running them one at a time wastes nearly all
the wall time on per-call overhead of small arrays.  ``solve_batch`` hands a
whole batch of paths, with arbitrary endpoints per path, to the descent loop
of ``solver`` (the one ``refine_path`` runs on a single path), so every
vectorized evaluation is shared, and then relaxes the paths that exit above
the gradient tolerance.
"""

from __future__ import annotations

import numpy as np

from .geometry import InvalidInputError, _resample_paths
from .solver import (
    DEFAULT_SOLVER,
    SolverConfig,
    _batch_relax,
    _descend,
    _refine_schedule,
    grid_init,
    log_lower_bound,
)


def solve_batch(domain, starts, ends, s: SolverConfig = DEFAULT_SOLVER,
                vertex_count=17, relax_sweeps=2, inits=None):
    """Quasihyperbolic lengths for many endpoint pairs at once.

    Returns (lengths, V, gradient_norms), V the (P, vertex_count, dim)
    final vertices; a degenerate pair (start = end) keeps its initial
    path, resampled to vertex_count, with length 0.  Initial paths default to
    straight chords (valid in convex domains); callers in non-convex
    domains must supply ``inits`` with the right homotopy classes, e.g.
    from grid seeds.  Lengths are fixed-node quadrature values of the
    final polylines: the batch grade trades a smooth O(1/V^2) bias for
    speed, which level-set consumers tolerate by construction.
    """
    if vertex_count < 3:
        raise InvalidInputError("vertex_count must be at least 3")
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    P = starts.shape[0]
    warm = inits is not None and np.asarray(inits).shape[1] == vertex_count
    if inits is None:
        if not domain.is_convex:
            inits = np.stack([
                grid_init(domain, starts[i], ends[i], s).resample(vertex_count).vertices
                for i in range(P)
            ])
        else:
            t = np.linspace(0.0, 1.0, vertex_count)
            inits = starts[:, None, :] + t[None, :, None] * (ends - starts)[:, None, :]
    degenerate = np.sqrt(((ends - starts) ** 2).sum(axis=1)) < 1e-14
    work = np.nonzero(~degenerate)[0]
    lengths = np.zeros(P)
    gnorms = np.zeros(P)
    V = np.asarray(inits, dtype=float)
    V = V.copy() if V.shape[1] == vertex_count else _resample_paths(V, vertex_count)
    if work.size:
        Vs = np.ascontiguousarray(np.asarray(inits)[work])
        # a warm start re-solves at its own count (bisection rounds, sweeps)
        schedule = ([vertex_count] if warm
                    else _refine_schedule(min(9, vertex_count), vertex_count))
        for count in schedule:
            if Vs.shape[1] != count:
                Vs = _resample_paths(Vs, count)
            Vs, f, vals, _, gn, _ = _descend(domain, Vs, s.refinement)
            # only paths that did not reach the gradient tolerance need polishing
            need = gn > s.refinement.gradient_tol
            if need.any():
                Vs, f, _ = _batch_relax(domain, Vs, vals, need,
                                        relax_sweeps if count == schedule[-1] else 1)
        lengths[work] = f
        gnorms[work] = gn
        V[work] = Vs
        # endpoint form of the logarithmic lower bound, logged suite-wide
        d_s = domain.boundary_distance_many(starts[work])
        d_e = domain.boundary_distance_many(ends[work])
        gap = domain.norm.eval(ends[work] - starts[work])
        bound = np.maximum(np.log1p(gap / d_s), np.log1p(gap / d_e))
        worst = int(np.argmin(f - bound))
        log_lower_bound(
            (getattr(domain, "name", "") or "domain") + f"[batch x{work.size}]",
            f[worst], bound[worst],
        )
        if ((f - bound) < -1e-6).any():
            # record every genuine undercut, not only the worst
            for j in np.nonzero(f - bound < -1e-6)[0]:
                log_lower_bound(
                    (getattr(domain, "name", "") or "domain") + "[batch!]",
                    f[j], bound[j],
                )
    return lengths, V, gnorms
