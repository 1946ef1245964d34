"""Two-stage geodesic solver for the quasihyperbolic metric.

Stage one finds a path in the right homotopy class: Dijkstra on a lattice
graph whose edge weights are short-segment quasihyperbolic lengths.  Stage
two descends the (convex) polyline length functional over the free interior
vertices with a Barzilai-Borwein step and a backtracking line search that
never leaves the domain; the weight blowing up near the boundary acts as a
natural barrier.  The objective is a fixed-node composite Simpson sum,
smooth except at weight seams, where the boundary distance switches its
nearest piece; the gradient takes the steeper downhill one-sided difference
per coordinate, so it vanishes at a kink minimum.

One driver, ``_coarse_to_fine``, runs every descent on a batch of paths:
at each level of the vertex doubling, the lockstep loop ``_descend``, then
relax.  Its two callers differ only in relax policy.  ``refine_paths``
relaxes every path and keeps a relaxed path only if it is shorter, then
checks kink stationarity and re-evaluates the length with the adaptive
quadrature; ``batch.solve_batch`` relaxes only the paths that exit above
the gradient tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DomainViolationError,
    InvalidInputError,
    Polyline,
    QHError,
    _as_points,
    _resample_paths,
    certify_segment,
)
from .metric import qh_path_length


class NoPathError(QHError):
    """Grid initialization found the endpoints in different components."""


class SolverStalledError(QHError):
    """Descent cannot make progress and the gradient has not converged."""


@dataclass(frozen=True)
class RefinementConfig:
    """Per-level descent controls (iterations are per refinement level)."""

    max_iterations: int = 400
    gradient_tol: float = 1e-4
    length_rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1 or self.gradient_tol <= 0 or self.length_rel_tol <= 0:
            raise InvalidInputError("refinement parameters must be positive")


@dataclass(frozen=True)
class SolverConfig:
    grid_resolution: float = 32.0  # lattice cells per unit length
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    vertex_budget: int = 49

    def __post_init__(self):
        if self.grid_resolution <= 0 or self.vertex_budget < 3:
            raise InvalidInputError("solver parameters must be positive")


DEFAULT_SOLVER = SolverConfig()

# every solved distance appends (tag, length, lower_bound, gap) here; the
# acceptance suite asserts no logged length ever undercuts its bound
LOWER_BOUND_LOG = []


def log_lower_bound(tag, length, bound):
    LOWER_BOUND_LOG.append((tag, float(length), float(bound), float(length - bound)))


@dataclass
class GeodesicResult:
    """A refined path, its quasihyperbolic length, and solve diagnostics."""

    path: Polyline | None
    qh_length: float
    lower_bound_gap: float
    converged: bool
    iterations: int
    refinement_history: list
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# fixed-node objective and the descent kernels
# ---------------------------------------------------------------------------

_NODES = np.linspace(0.0, 1.0, 7)
_WEIGHTS = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 18.0
_FD_SCALE = 1e-6  # gradient probe step, relative to the boundary distance
_KINK_SCALES = (1e-6, 3e-4, 1e-2)  # kink-stationarity probe steps, likewise


def _segment_values(domain, A, B):
    """Fixed 7-node Simpson integral of ||seg||/d for each segment [A_i, B_i].

    Returns per-segment values with inf where a quadrature node leaves the
    domain.

    The nodes are laid out node-major, (7, n, dim), so every elementwise
    pass runs over a long axis instead of broadcasting along a trailing
    axis of length dim.  The Simpson contraction stays on the (n, 7)
    layout: it sums each segment's seven terms in the same order at any n.
    """
    seg = B - A
    lens = domain.norm.eval(seg)
    pts = _NODES[:, None, None] * seg
    pts += A
    r = domain.depth_many(pts.reshape(-1, A.shape[1])).reshape(7, A.shape[0])
    outside = r <= 0.0
    bad = outside.any(axis=0)
    r[outside] = 1.0
    np.reciprocal(r, out=r)
    # a lone row would contract through BLAS dot, which rounds unlike the
    # batched gemv: contract it as two equal rows
    R = np.ascontiguousarray(r.T) if r.shape[1] != 1 else np.repeat(r.T, 2, axis=0)
    vals = lens * (R @ _WEIGHTS)[:A.shape[0]]
    vals[bad] = np.inf
    return vals


_MOVE_BLOCK = 1 << 12  # candidates per _segment_values call (two segments each)


def _move_costs(domain, W, cols, C):
    """Fixed-node cost of the two segments at vertex ``cols`` of every path
    of ``W`` (P, m, dim) if that vertex moves to a candidate of ``C``
    (P, k, K, dim): [W[:, cols - 1], c] + [c, W[:, cols + 1]], shape (P, k, K).

    Blocks of whole (path, vertex) rows, at most ``_MOVE_BLOCK`` candidates
    unless one row holds more, keep the temporaries bounded at any batch
    size; no value depends on the blocking.
    """
    P, k, K, dim = C.shape
    prev = W[:, cols - 1].reshape(-1, dim)
    nxt = W[:, cols + 1].reshape(-1, dim)
    C = C.reshape(-1, dim)
    out = np.empty(C.shape[0])
    rows = max(1, _MOVE_BLOCK // K)
    for lo in range(0, prev.shape[0], rows):
        c = C[lo * K:(lo + rows) * K]
        n = c.shape[0]
        sv = _segment_values(domain, np.concatenate([np.repeat(prev[lo:lo + rows], K, axis=0), c]),
                             np.concatenate([c, np.repeat(nxt[lo:lo + rows], K, axis=0)]))
        np.add(sv[:n], sv[n:], out=out[lo * K:lo * K + n])
    return out.reshape(P, k, K)


@functools.cache
def _directions(dim):
    """Unit probe directions, read-only: each coordinate axis both ways,
    then every diagonal."""
    dirs = []
    for e in np.eye(dim):
        dirs += [e, -e]
    for signs in np.ndindex(*(2,) * dim):
        dirs.append(np.where(np.array(signs) == 0, 1.0, -1.0) / np.sqrt(dim))
    dirs = np.stack(dirs)
    dirs.setflags(write=False)
    return dirs


# The descent kernels below act on a batch of paths Vs of shape (P, m, dim)
# with pinned endpoints; a single path runs as the view V[None].
def _batch_objective(domain, Vs):
    """Fixed-node length of every path, and its per-segment values."""
    P, m, dim = Vs.shape
    vals = _segment_values(
        domain, Vs[:, :-1].reshape(-1, dim), Vs[:, 1:].reshape(-1, dim)
    ).reshape(P, m - 1)
    return vals.sum(axis=1), vals


def _batch_gradient(domain, Vs, base_vals):
    """Finite-difference gradient of the fixed-node objective over interior vertices.

    The step is ``_FD_SCALE`` times the local boundary distance, so probes stay
    inside the domain.  The boundary distance of a CSG domain is a min of
    smooth pieces, so the objective has kinks; per coordinate the steeper
    *downhill* one-sided slope is used, which equals the central difference
    on smooth parts, and vanishes at a kink minimum (both sides uphill)
    instead of reporting the meaningless kink average.  Returns the
    gradient and the boundary distances of the interior vertices.
    """
    P, m, dim = Vs.shape
    inner = m - 2
    d_in = domain.depth_many(Vs[:, 1:-1].reshape(-1, dim)).reshape(P, inner)
    h = _FD_SCALE * d_in
    # +h and -h along each axis in turn
    C = Vs[:, 1:-1, None, :] + h[:, :, None, None] * _directions(dim)[:2 * dim]
    F = _move_costs(domain, Vs, np.arange(1, m - 1), C).reshape(P, inner, dim, 2)
    base = (base_vals[:, :-1] + base_vals[:, 1:])[:, :, None]
    with np.errstate(invalid="ignore"):
        down_plus = (base - F[..., 0]) / h[:, :, None]   # > 0: +e_c is downhill
        down_minus = (base - F[..., 1]) / h[:, :, None]  # > 0: -e_c is downhill
    down_plus = np.where(np.isfinite(down_plus), down_plus, -np.inf)
    down_minus = np.where(np.isfinite(down_minus), down_minus, -np.inf)
    locked = (down_plus <= 0.0) & (down_minus <= 0.0)
    grad = np.where(down_plus >= down_minus, -down_plus, down_minus)
    return np.where(locked, 0.0, grad), d_in


_SCREEN_NODES = np.linspace(0.0, 1.0, 5)


def _batch_screen(domain, Vs):
    """Exact interiority of every path: positive depth at five nodes per
    segment plus the Lipschitz budget between consecutive nodes; a segment
    failing the budget gets the bisection certificate."""
    P, m, dim = Vs.shape
    seg = Vs[:, 1:] - Vs[:, :-1]
    pts = _SCREEN_NODES[:, None, None, None] * seg  # node-major (5, P, m-1, dim)
    pts += Vs[:, :-1]
    d = domain.depth_many(pts.reshape(-1, dim)).reshape(5, P, m - 1)
    out = (d > 0.0).all(axis=(0, 2))
    slen = np.sqrt((seg * seg).sum(axis=2)) / 4.0
    risky = ~(d[:-1] + d[1:] > slen).all(axis=0)
    for p, i in zip(*np.nonzero(out[:, None] & risky)):
        if out[p] and not certify_segment(domain, Vs[p, i], Vs[p, i + 1]):
            out[p] = False
    return out


_RELAX_STEPS = 0.5 ** np.array([0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13])


def _batch_relax(domain, Vs, vals, active, sweeps):
    """Checkerboard per-vertex polish of the active paths, in place.

    Vertices of equal parity touch disjoint segment pairs, so a whole
    parity class line-searches at once, each vertex with its own step
    along the downhill direction, the axes and the diagonals.  This is what
    finishes solves whose global BB steps crawl at weight-seam kinks (a
    shared step size cannot serve both the crawling vertex and the rest of
    the chain).  ``vals`` are the current segment values; a path stops when
    the moves a sweep took gain at most 1e-10 relative.  Returns
    (Vs, lengths, vals).
    """
    P, m, dim = Vs.shape
    f = vals.sum(axis=1)
    if m < 3 or sweeps <= 0:
        return Vs, f, vals
    fixed = _directions(dim)
    live = active.copy()
    for _ in range(sweeps):
        if not live.any():
            break
        idxp = np.nonzero(live)[0]
        W = Vs[idxp]
        wvals = vals[idxp]
        g, d_in = _batch_gradient(domain, W, wvals)  # direction may go slightly stale
        improved = np.zeros(idxp.size)
        for parity in (1, 0):
            cols = np.arange(1 + parity, m - 1, 2)
            if cols.size == 0:
                continue
            gi = g[:, cols - 1]
            gn = np.sqrt((gi * gi).sum(axis=2, keepdims=True))
            u = np.where(gn > 0, -gi / np.maximum(gn, 1e-300), 0.0)
            dirs = np.concatenate(
                [u[:, :, None, :],
                 np.broadcast_to(fixed[None, None], (idxp.size, cols.size) + fixed.shape)],
                axis=2,
            )  # (p, k, J, dim)
            # parity classes move in turn, so these vertices are where the gradient saw them
            delta = 0.45 * d_in[:, cols - 1]
            # candidate positions over direction x step ladder, (p, k, J * T, dim)
            C = (
                W[:, cols][:, :, None, None, :]
                + (delta[:, :, None, None] * _RELAX_STEPS[None, None, None, :])[..., None]
                * dirs[:, :, :, None, :]
            ).reshape(idxp.size, cols.size, -1, dim)
            F = _move_costs(domain, W, cols, C)
            base = wvals[:, cols - 1] + wvals[:, cols]
            best = F.argmin(axis=2)
            pi, ki = np.indices(best.shape)
            gain = base - F[pi, ki, best]
            take = gain > 1e-14 * np.maximum(np.abs(f[idxp, None]), 1.0)
            if take.any():
                newpos = C[pi, ki, best]
                Wn = W.copy()
                Wn[:, cols] = np.where(take[:, :, None], newpos, W[:, cols])
                cert = _batch_screen(domain, Wn)
                W = np.where(cert[:, None, None], Wn, W)
                # only the moves taken count; a vertex left in place has gain <= 0
                improved += np.where(cert, np.where(take, gain, 0.0).sum(axis=1), 0.0)
                _, wvals = _batch_objective(domain, W)
        Vs[idxp] = W
        vals[idxp] = wvals
        f[idxp] = wvals.sum(axis=1)
        live[idxp] = improved > 1e-10 * np.maximum(np.abs(f[idxp]), 1.0)
    return Vs, f, vals


def _kink_stationary(domain, V, segvals, d_in, tol):
    """First-order optimality at weight seams, tested at several probe scales.

    The boundary distance of a CSG domain is a min of smooth pieces, so the
    objective can have kinks where central differences report the average
    slope, and an iterate parked a hair away from a kink valley still shows
    a one-sided downhill slope at infinitesimal probes.  A vertex counts as
    stationary when, at some probe scale h, every directional move (axes
    and diagonals) fails to improve the objective by more than tol * h.
    ``d_in`` are the boundary distances of the interior vertices.
    """
    m, dim = V.shape
    inner = m - 2
    base = segvals[:-1] + segvals[1:]
    stationary = np.zeros(inner, dtype=bool)
    for scale in _KINK_SCALES:
        todo = ~stationary
        if not todo.any():
            break
        h = scale * d_in[todo]
        cols = np.flatnonzero(todo) + 1
        C = V[cols][:, None, :] + h[:, None, None] * _directions(dim)
        F = _move_costs(domain, V[None], cols, C[None])[0]
        dd = (F - base[todo][:, None]) / h[:, None]
        stationary[todo] = (dd >= -tol).all(axis=1)
    return bool(stationary.all())


def _armijo_trial(domain, W, step, f_max):
    """Move every path of ``W`` by -step.  Returns the trial paths, their
    lengths and segment values, and which trials are accepted: length at
    most ``f_max`` and through the interiority screen."""
    trial = W.copy()
    trial[:, 1:-1] -= step
    f, vals = _batch_objective(domain, trial)
    ok = np.isfinite(f) & (f <= f_max)
    if ok.any():
        ok[ok] = _batch_screen(domain, trial[ok])
    return trial, f, vals, ok


def _descend(domain, Vs, ref: RefinementConfig):
    """Nonmonotone Barzilai-Borwein descent of a batch of paths in lockstep.

    Every path of ``Vs`` (shape (P, m, dim), endpoints pinned) takes its own
    BB step s.s / s.y, or the fresh step 0.25 d_min / |g| on the first
    iteration and when s.y <= 0, and tries it and up to 29 halvings of it
    until the objective drops below the max of the path's last five values
    by the Armijo margin and the trial path passes the interiority screen.  A
    path exits when its gradient meets the tolerance, when no halving is
    accepted (no float-representable decrease along -g: resolved to
    noise), after three steps in a row of relative drop below
    ``length_rel_tol``, or at ``max_iterations``.

    No arithmetic mixes paths, so a path gives the same bits alone or
    inside any batch.  The live paths are one contiguous block, compacted
    only when some path exits.  A path that starts outside the domain exits
    at once, with infinite length, no iterations and a NaN gradient norm.

    Returns the best iterate of every path (vertices, lengths, segment
    values), the iterations each ran, the gradient norm of its last
    iteration, and the record: for every iteration in which some path
    improved on its best, the block's path indices, lengths and the mask
    of the paths that improved.
    """
    P, m, dim = Vs.shape
    n = (m - 2) * dim
    f, vals = _batch_objective(domain, Vs)
    V_out, f_out, vals_out = np.empty_like(Vs), np.empty_like(f), np.empty_like(vals)
    iterations = np.empty(P, dtype=int)
    gnorm = np.empty(P)
    record = []
    # the live block
    idx = np.arange(P)
    W, fW, vW = Vs, f, vals
    Wb, fb, vb = Vs.copy(), f.copy(), vals.copy()
    recent = np.repeat(f[:, None], 5, axis=1)
    stagnant = np.zeros(P, dtype=int)
    g_prev = s_prev = np.zeros((P, m - 2, dim))

    def retire(out, it, gn):
        """Write the best iterates of the paths in ``out`` and drop them."""
        nonlocal idx, W, fW, vW, Wb, fb, vb, recent, stagnant, g_prev, s_prev
        gone = idx[out]
        iterations[gone] = it
        gnorm[gone] = gn[out]
        V_out[gone], f_out[gone], vals_out[gone] = Wb[out], fb[out], vb[out]
        keep = ~out
        idx, W, fW, vW, Wb, fb, vb, recent, stagnant, g_prev, s_prev = (
            a[keep] for a in (idx, W, fW, vW, Wb, fb, vb, recent, stagnant, g_prev, s_prev))
        return keep

    outside = ~np.isfinite(f)
    if outside.any():
        retire(outside, 0, np.full(P, np.nan))
    # no iteration runs when every path started outside
    for it in range(1, ref.max_iterations + 1 if idx.size else 1):
        g, d_in = _batch_gradient(domain, W, vW)
        gn = np.abs(g).max(axis=(1, 2))
        at_tol = gn <= ref.gradient_tol
        if at_tol.any():
            keep = retire(at_tol, it, gn)
            if idx.size == 0:
                break
            g, d_in, gn = g[keep], d_in[keep], gn[keep]
        t = 0.25 * d_in.min(axis=1) / gn
        # a path that takes no step exits, so every live path has stepped in
        # each earlier iteration: it has a BB pair after the first, and its
        # last five lengths fill the ring ``recent`` in step with ``it``
        if it > 1:
            # stacked dot products sum each path in the same order at any
            # batch size
            s = s_prev.reshape(-1, 1, n)
            sy = np.matmul(s, (g - g_prev).reshape(-1, n, 1))[:, 0, 0]
            ss = np.matmul(s, s.reshape(-1, n, 1))[:, 0, 0]
            np.divide(ss, sy, out=t, where=sy > 0)
        t = np.minimum(np.maximum(t, 1e-14), 1e6)
        # the step and the Armijo decrease 1e-4 t |g|^2 halve together, exactly
        step = t[:, None, None] * g
        decrease = 1e-4 * t * (g * g).sum(axis=(1, 2))
        f_ref = recent.max(axis=1)
        # every path tries its full step; the rejected ones backtrack on
        # copies of their rows, dropped as they are accepted
        Wn, fn, vn, ok = _armijo_trial(domain, W, step, f_ref - decrease)
        if not ok.all():
            todo = np.flatnonzero(~ok)
            Wt, step, f_ref, decrease = W[todo], step[todo], f_ref[todo], decrease[todo]
            for _ in range(29):
                step *= 0.5
                decrease *= 0.5
                trial, ft, vt, ok = _armijo_trial(domain, Wt, step, f_ref - decrease)
                if ok.any():
                    hit, rest = todo[ok], ~ok
                    Wn[hit], fn[hit], vn[hit] = trial[ok], ft[ok], vt[ok]
                    todo, Wt, step, f_ref, decrease = (
                        a[rest] for a in (todo, Wt, step, f_ref, decrease))
                    if todo.size == 0:
                        break
            if todo.size:
                # no halving accepted: no float-representable decrease along -g
                failed = np.zeros(idx.size, dtype=bool)
                failed[todo] = True
                keep = retire(failed, it, gn)
                if idx.size == 0:
                    break
                g, gn, Wn, fn, vn = g[keep], gn[keep], Wn[keep], fn[keep], vn[keep]
        g_prev, s_prev = g, Wn[:, 1:-1] - W[:, 1:-1]
        rel = (fW - fn) / np.maximum(np.abs(fn), 1e-300)
        W, fW, vW = Wn, fn, vn
        recent[:, it % 5] = fW
        better = fW < fb
        if better.all():
            # iterates are never written in place, so the best may share them
            record.append((idx, fW, better))
            Wb, fb, vb = W, fW, vW
        elif better.any():
            record.append((idx, fW, better))
            Wb = np.where(better[:, None, None], W, Wb)
            fb = np.where(better, fW, fb)
            vb = np.where(better[:, None], vW, vb)
        stagnant = (stagnant + 1) * (np.abs(rel) < ref.length_rel_tol)
        if it == ref.max_iterations or stagnant.max() >= 3:
            retire((stagnant >= 3) | (it == ref.max_iterations), it, gn)
            if idx.size == 0:
                break
    return V_out, f_out, vals_out, iterations, gnorm, record


_START_COUNT = 9  # vertices of the coarsest level
_OUTSIDE = "initial path is not strictly inside the domain"


def _coarse_to_fine(domain, Vs, start, budget, ref: RefinementConfig, sweeps,
                    relax_all, history=None):
    """Descend, then relax, a batch of paths (P, m, dim) with pinned endpoints
    at ``start`` vertices and then at each count m -> 2m - 1 up to ``budget``.

    ``sweeps`` = (relax sweeps per level, at the last level).  With
    ``relax_all`` every path is relaxed and keeps the result only if it is
    shorter; otherwise only the paths whose descent exits above the
    gradient tolerance are relaxed, in place.  ``history``, one list per
    path, collects each new best length.  A path whose level starts outside
    the domain keeps an infinite length.  Returns the last level's
    vertices, lengths, segment values and descent gradient norms, and the
    iterations of all levels.
    """
    def improve(p, length):
        if not history[p] or length < history[p][-1]:
            history[p].append(float(length))

    iterations = np.zeros(Vs.shape[0], dtype=int)
    count = start
    while True:
        if Vs.shape[1] != count:
            Vs = _resample_paths(Vs, count)
        Vs, f, vals, it, gn, record = _descend(domain, Vs, ref)
        iterations += it
        for idx, best, better in record if history is not None else ():
            for p, length in zip(idx[better], best[better]):
                improve(p, length)
        del record  # one entry per improving iteration: free it before relax
        # polish: per-vertex relaxation finishes what shared-step BB crawls on
        active = np.isfinite(f) if relax_all else gn > ref.gradient_tol
        level_sweeps = sweeps[1] if count >= budget else sweeps[0]
        if relax_all and active.any():
            Vr, fr, vr = _batch_relax(domain, Vs.copy(), vals.copy(), active, level_sweeps)
            keep = fr < f
            Vs = np.where(keep[:, None, None], Vr, Vs)
            vals = np.where(keep[:, None], vr, vals)
            f = np.where(keep, fr, f)
            for p in np.flatnonzero(keep) if history is not None else ():
                improve(p, fr[p])
        elif active.any():
            Vs, f, vals = _batch_relax(domain, Vs, vals, active, level_sweeps)
        if count >= budget:
            return Vs, f, vals, gn, iterations
        count = min(budget, 2 * count - 1)


def _certified_start(domain, init: Polyline, budget):
    """Coarsest resampling of the seed reachable by an interior straight-line
    homotopy (each point moves by less than its boundary distance), so the
    coarse path cannot land in a different homotopy class than the seed."""
    M = max(4 * init.vertices.shape[0], 256)
    dense = init.resample(M).vertices
    d_dense = domain.depth_many(dense)
    count = min(_START_COUNT, budget)
    while count < budget:
        coarse = Polyline(init.resample(count).vertices).resample(M).vertices
        dev = np.sqrt(np.sum((dense - coarse) ** 2, axis=1))
        if (dev < 0.85 * d_dense).all():
            return count
        count = min(budget, 2 * count - 1)
    return count


def refine_paths(domain, inits, s: SolverConfig = DEFAULT_SOLVER):
    """Descend the length functional from each seed polyline (endpoints pinned).

    Coarse-to-fine: a seed is resampled to the coarsest vertex chain it
    certifies, descended to tolerance, then midpoint-subdivided up to
    ``s.vertex_budget``.  Seeds of one start count run as one batch, and
    each gets the bits it gets alone.  On a convex domain the functional is
    convex, so each result is the global minimizer up to discretization.
    Returns, in seed order, each seed's ``GeodesicResult`` or the
    ``QHError`` its solve ended with.
    """
    budget, tol = s.vertex_budget, s.refinement.gradient_tol
    starts = [_certified_start(domain, init, budget) for init in inits]
    # what a seed keeps when one of its levels starts outside the domain
    out = [DomainViolationError(_OUTSIDE) for _ in inits]
    for start in sorted(set(starts)):
        group = [i for i, c in enumerate(starts) if c == start]
        # the first level resamples the start chain again, as the one-seed
        # solver always has: the results' bits depend on it
        Vs = _resample_paths(np.stack([inits[i].resample(start).vertices for i in group]), start)
        history = [[] for _ in group]
        Vs, f, vals, _, iterations = _coarse_to_fine(
            domain, Vs, start, budget, s.refinement, (5, 30), relax_all=True, history=history)
        inside = np.flatnonzero(np.isfinite(f))
        if inside.size:
            # measure optimality at the iterates actually returned
            g, d_in = _batch_gradient(domain, Vs[inside], vals[inside])
            gnorm = np.abs(g).max(axis=(1, 2))
        for r, j in enumerate(inside):
            i = group[j]
            converged = gnorm[r] <= tol or _kink_stationary(domain, Vs[j], vals[j], d_in[r], tol)
            if not converged and gnorm[r] > 50.0 * tol:
                out[i] = SolverStalledError(
                    f"descent cannot progress: |grad|_inf={gnorm[r]:.3e} after "
                    f"{iterations[j]} iterations at {budget} vertices")
                continue
            try:
                path = Polyline(Vs[j])
                length = qh_path_length(domain, path)
                gap = length - path_point_lower_bound(domain, path)
            except QHError as err:
                out[i] = err
                continue
            log_lower_bound(domain.name or "domain", length, length - gap)
            out[i] = GeodesicResult(
                path=path, qh_length=length, lower_bound_gap=float(gap),
                converged=bool(converged), iterations=int(iterations[j]),
                refinement_history=history[j], meta={"vertex_count": int(budget)})
    return out


def _raise_first(results):
    """The entries of ``refine_paths``; raises the first error among them."""
    for res in results:
        if isinstance(res, QHError):
            raise res
    return results


def refine_path(domain, init: Polyline, s: SolverConfig = DEFAULT_SOLVER):
    """``refine_paths`` on the one seed ``init``; raises its ``QHError``."""
    return _raise_first(refine_paths(domain, [init], s))[0]


def path_point_lower_bound(domain, path: Polyline):
    """max over path vertices z and endpoints e of log(1 + ||z-e||/d(z))."""
    V = path.vertices
    d = domain.boundary_distance_many(V)
    best = 0.0
    for e in (V[0], V[-1]):
        gap = domain.norm.eval(V - e)
        best = max(best, float(np.log1p(gap / d).max()))
    return best


# ---------------------------------------------------------------------------
# grid initialization
# ---------------------------------------------------------------------------

_OFFSETS_2D = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]
_OFFSETS_3D = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
]


def _grid_window(domain, x, y):
    lo_hint, hi_hint = domain.window_hint()
    pts = np.stack([x, y])
    d = domain.boundary_distance_many(pts)
    pad = max(float(np.linalg.norm(x - y)), float(d.max()) * 2.0, 0.5)
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    lo = [l if b is None else max(l, b) for l, b in zip(lo, lo_hint)]
    hi = [h if b is None else min(h, b) for h, b in zip(hi, hi_hint)]
    return np.array(lo), np.array(hi)


def _links(domain, a, b, da, db, length):
    """Which links [a_i, b_i] stay inside, and the 3-node Simpson weight of
    each one that does.  ``da``, ``db`` are the end depths and ``length``
    the link lengths; each argument is an array or broadcasts like one."""
    dm = domain.depth_many(0.5 * (a + b))
    # a link can only exit if it is longer than the distance budget
    ok = (da + db > length) | ((dm > 0) & (da + dm > 0.5 * length) & (dm + db > 0.5 * length))
    da, db, dm, length = (np.broadcast_to(v, ok.shape)[ok] for v in (da, db, dm, length))
    return ok, length * (1.0 / da + 4.0 / np.maximum(dm, 1e-300) + 1.0 / db) / 6.0


class _GridGraph:
    """Lattice graph over a window with quasihyperbolic edge weights."""

    def __init__(self, domain, x, y, resolution):
        dim = domain.dimension
        if dim not in (2, 3):
            raise InvalidInputError("grid initialization supports dimensions 2 and 3")
        self.domain = domain
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        lo, hi = _grid_window(domain, self.x, self.y)
        h = 1.0 / resolution
        axes = [np.arange(lo[j], hi[j] + 0.5 * h, h) for j in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        depth = domain.depth_many(pts)
        self.h = h
        self.shape = tuple(len(a) for a in axes)
        self.pts = pts
        self.depth = depth
        self.valid = depth > 1e-12
        offsets = _OFFSETS_2D if dim == 2 else _OFFSETS_3D
        rows, cols, wts = [], [], []
        idx_grid = np.arange(pts.shape[0]).reshape(self.shape)
        for off in offsets:
            src_slice = tuple(
                slice(None, -o) if o > 0 else slice(-o, None) for o in off
            )
            dst_slice = tuple(
                slice(o, None) if o > 0 else slice(None, o if o else None) for o in off
            )
            si = idx_grid[src_slice].ravel()
            di = idx_grid[dst_slice].ravel()
            ok = self.valid[si] & self.valid[di]
            si, di = si[ok], di[ok]
            if si.size == 0:
                continue
            length = float(np.linalg.norm(np.array(off))) * h
            ok, w = _links(domain, pts[si], pts[di], depth[si], depth[di], length)
            rows.append(si[ok])
            cols.append(di[ok])
            wts.append(w)
        n = pts.shape[0]
        # two extra vertices for the exact endpoints
        self.src = n
        self.dst = n + 1
        for p, tag in ((self.x, self.src), (self.y, self.dst)):
            dp = domain.boundary_distance_many(p[None, :])[0]
            gap = pts - p[None, :]
            dist = np.sqrt(np.sum(gap * gap, axis=1))
            near = np.nonzero(self.valid & (dist <= 2.05 * h) & (dist > 0))[0]
            if near.size == 0:
                raise NoPathError("endpoint is isolated at this grid resolution")
            ok, w = _links(domain, p, pts[near], dp, depth[near], dist[near])
            near = near[ok]
            if near.size == 0:
                raise NoPathError("endpoint cannot be linked into the lattice")
            rows.append(np.full(near.size, tag))
            cols.append(near)
            wts.append(w)
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
        self.base_w = np.concatenate(wts)
        self.n_vertices = n + 2

    def shortest_path(self, penalty_mask=None):
        """Cheapest lattice path; edges under ``penalty_mask`` cost 10 times more."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        w = self.base_w.copy()
        if penalty_mask is not None:
            w = np.where(penalty_mask, w * 10.0, w)
        graph = csr_matrix((w, (self.rows, self.cols)), shape=(self.n_vertices,) * 2)
        dist, pred = dijkstra(
            graph, directed=False, indices=self.src, return_predecessors=True
        )
        if not np.isfinite(dist[self.dst]):
            raise NoPathError("endpoints lie in different grid components")
        chain = [self.dst]
        while chain[-1] != self.src:
            chain.append(int(pred[chain[-1]]))
        chain.reverse()
        V = np.vstack([self.x, self.pts[chain[1:-1]], self.y])
        keep = np.ones(len(V), dtype=bool)
        keep[1:] &= np.sqrt(np.sum(np.diff(V, axis=0) ** 2, axis=1)) > 1e-12
        return Polyline(V[keep], meta={"grid_cost": float(dist[self.dst])}), chain

    def edge_penalty_mask(self, paths, radius):
        """Edges with both endpoints near any of the given polylines."""
        from scipy.spatial import cKDTree

        samples = np.concatenate([p.resample(200).vertices for p in paths])
        tree = cKDTree(samples)
        node_near = np.zeros(self.n_vertices, dtype=bool)
        q = tree.query(self.pts, k=1)[0]
        near = q < radius
        # keep the funnel around the shared endpoints penalty-free
        for p in (self.x, self.y):
            gap = np.sqrt(np.sum((self.pts - p) ** 2, axis=1))
            near &= gap > 1.5 * radius
        node_near[: self.pts.shape[0]] = near
        return node_near[self.rows] & node_near[self.cols]


def _chord_polyline(x, y):
    t = np.linspace(0.0, 1.0, 9)
    return Polyline(x[None, :] + t[:, None] * (y - x)[None, :])


def grid_init(domain, x, y, s: SolverConfig = DEFAULT_SOLVER):
    """Initial polyline from x to y strictly inside the domain.

    Convex domains take the straight chord; otherwise Dijkstra on the
    lattice graph picks the cheapest corridor, with its lattice cost
    recorded as ``grid_cost`` in the polyline metadata.
    """
    X, _ = _as_points(x, domain.dimension)
    Y, _ = _as_points(y, domain.dimension)
    x = X[0]
    y = Y[0]
    if not (domain.contains(x) and domain.contains(y)):
        raise DomainViolationError("endpoints must lie inside the domain")
    if domain.is_convex:
        return _chord_polyline(x, y)
    if certify_segment(domain, x, y):
        # interior chord in a non-convex domain is still a valid seed
        return _chord_polyline(x, y)
    graph = _GridGraph(domain, x, y, s.grid_resolution)
    path, _ = graph.shortest_path()
    return path


def qh_distance(domain, x, y, s: SolverConfig = DEFAULT_SOLVER):
    """Quasihyperbolic distance and geodesic: grid seed, then refinement."""
    X, _ = _as_points(x, domain.dimension)
    Y, _ = _as_points(y, domain.dimension)
    x, y = X[0], Y[0]
    if not (domain.contains(x) and domain.contains(y)):
        raise DomainViolationError("endpoints must lie inside the domain")
    if float(np.linalg.norm(x - y)) == 0.0:
        return GeodesicResult(
            path=None, qh_length=0.0, lower_bound_gap=0.0, converged=True,
            iterations=0, refinement_history=[], meta={"degenerate": True},
        )
    return refine_path(domain, grid_init(domain, x, y, s), s)


_MULTIPLICITY_SEEDS = 4


def geodesic_multiplicity(domain, x, y):
    """All geodesics between x and y found from up to four distinct seeds,
    each solved at ``DEFAULT_SOLVER``.

    Seeding: the grid path, then reruns with edges near previous paths
    penalized (distinct corridors surface as cheapest alternatives); on a
    convex domain, the chord and chords bumped by seeded normal draws.
    Converged results within 1e-4 relative of the minimum length are kept
    and deduplicated by sup-distance after arclength reparametrization.
    """
    X, _ = _as_points(x, domain.dimension)
    Y, _ = _as_points(y, domain.dimension)
    x, y = X[0], Y[0]
    if domain.is_convex:
        # perturbed chords all fall back to the same geodesic
        chord = _chord_polyline(x, y)
        seeds = [chord]
        rng = np.random.default_rng(0)
        arch = np.sin(np.pi * np.linspace(0.0, 1.0, 9))[:, None]
        for _ in range(_MULTIPLICITY_SEEDS - 1):
            mid_bump = rng.normal(scale=0.1 * np.linalg.norm(y - x), size=domain.dimension)
            cand = chord.vertices + arch * mid_bump[None, :]
            if domain.contains_many(cand).all():
                seeds.append(Polyline(cand))
    else:
        graph = _GridGraph(domain, x, y, DEFAULT_SOLVER.grid_resolution)
        first, _ = graph.shortest_path()
        seeds = [first]
        radius = max(2.0 * graph.h, 0.12 * float(np.linalg.norm(x - y)))
        for _ in range(_MULTIPLICITY_SEEDS - 1):
            mask = graph.edge_penalty_mask(seeds, radius)
            try:
                alt, _ = graph.shortest_path(penalty_mask=mask)
            except NoPathError:
                break
            seeds.append(alt)
    # a seed that stalls or leaves the domain is skipped; any other error is raised
    solved = [r for r in refine_paths(domain, seeds, DEFAULT_SOLVER)
              if not isinstance(r, (SolverStalledError, DomainViolationError))]
    results = [r for r in _raise_first(solved) if r.converged]
    if not results:
        raise SolverStalledError("no seed converged")
    kmin = min(r.qh_length for r in results)
    ties = [r for r in results if r.qh_length <= kmin + 1e-4 * max(kmin, 1.0)]
    return dedupe_geodesics(ties)


def dedupe_geodesics(results):
    """Drop duplicates: same geodesic when, resampled to 96 vertices, the
    sup-distance is below 1e-2 times the diameter."""
    kept = []
    sampled = []
    for r in sorted(results, key=lambda r: r.qh_length):
        P = r.path.resample(96).vertices
        diam = max(float(np.linalg.norm(P.max(axis=0) - P.min(axis=0))), 1e-12)
        if not any(float(np.abs(P - Q).max()) < 1e-2 * diam for Q in sampled):
            kept.append(r)
            sampled.append(P)
    return kept
