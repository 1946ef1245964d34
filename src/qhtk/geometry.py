"""Ambient norms, explicit domains, and exact distance-to-boundary oracles.

Domains are constructive: an intersection of primitives with closed-form
boundary distances (half-spaces, ambient-norm balls, slabs, boxes, planar
polygons), minus removed points, segments, or the countable axis-point
family used by the non-geodesic example.  Exactness of d(x, boundary) is
what every downstream quadrature and solve rests on, so there are no
general implicit surfaces here.

All oracles are vectorized over arrays of points of shape (N, dim).
Every object is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

SQRT2 = float(np.sqrt(2.0))


class QHError(Exception):
    """Base class for toolkit errors."""


class InvalidInputError(QHError):
    pass


class DomainViolationError(QHError):
    """Query point outside the open domain (or exactly on its boundary)."""


def _as_points(x, dim=None):
    """Return points as a (N, dim) float array plus a flag for 1-D input."""
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2:
        raise InvalidInputError(f"expected point array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("non-finite coordinates")
    if dim is not None and a.shape[1] != dim:
        raise InvalidInputError(f"dimension mismatch: expected {dim}, got {a.shape[1]}")
    return a, single


def _finite(value, ndim=0):
    """Whether ``value`` is a finite real number (ndim 0) or array with ``ndim`` axes."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    return a.ndim == ndim and bool(np.isfinite(a).all())


def _is_index(value):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require(ok, message):
    """Raise InvalidInputError(message) unless ``ok``; messages start with the field."""
    if not ok:
        raise InvalidInputError(message)


def _length_misfit(dimension, vector):
    return "" if len(vector) == dimension else f"needs vectors of length {dimension}"


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Ambient norm: Euclidean or an l^p norm with exponent p in (1, inf)."""

    kind: str = "euclidean"
    p: float | None = None

    def __post_init__(self):
        _require(self.kind in ("euclidean", "p"), f"kind: unknown norm kind {self.kind!r}")
        _require(self.kind == "p" or self.p is None, "p: not allowed for the euclidean norm")
        _require(self.kind == "euclidean" or (_finite(self.p) and self.p > 1.0),
                 "p: exponent must be finite and > 1")

    @property
    def exponent(self):
        return 2.0 if self.kind == "euclidean" else float(self.p)

    @property
    def dual_exponent(self):
        p = self.exponent
        return p / (p - 1.0)

    def eval(self, v):
        """Norm of v; vectorized over the last axis.

        Rows that underflow to zero are recomputed after rescaling by
        their max coordinate, so the norm vanishes only at the origin;
        only those rows are touched.

        The sum runs one coordinate at a time over all rows, in coordinate
        order.  For dim <= 7 that is the order ``np.sum`` takes on a row,
        so the bits are the same at a fraction of the cost on (N, 2); from
        dim 8 on ``np.sum`` adds pairwise, and the last bit can differ.
        """
        v = np.asarray(v, dtype=float)
        dim = v.shape[-1]
        if self.kind == "euclidean":
            out = v[..., 0] * v[..., 0]
            for j in range(1, dim):
                out += v[..., j] * v[..., j]
            out = np.sqrt(out)
        else:
            a = np.abs(v)
            out = a[..., 0] ** self.p
            for j in range(1, dim):
                out += a[..., j] ** self.p
            out = out ** (1.0 / self.p)
        zero = out == 0.0
        if not zero.any():
            return out
        if v.ndim == 1:
            return self.eval(v[None])[0]
        # the max is exact, so taking it over the zero rows alone moves no bits
        vz = v[zero]
        vmax = np.max(np.abs(vz), axis=-1)
        bad = vmax > 0.0
        out.flat[np.flatnonzero(zero)[bad]] = vmax[bad] * self.eval(vz[bad] / vmax[bad, None])
        return out

    def dual_eval(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "euclidean":
            return np.sqrt(np.sum(v * v, axis=-1))
        q = self.dual_exponent
        return np.sum(np.abs(v) ** q, axis=-1) ** (1.0 / q)


EUCLIDEAN = NormSpec()


# ---------------------------------------------------------------------------
# primitives (intersected to form the open set)
# ---------------------------------------------------------------------------
#
# Primitives and removals are plain data that check their own values when
# built.  ``misfit(dimension, norm)`` says why a part cannot sit in a domain
# of that dimension and norm ("" when it can); ``DomainSpec`` asks once, then
# lowers the parts into the flat oracle kernels further below.

@dataclass(frozen=True)
class HalfSpace:
    """Open half-space {x : normal . x > offset}."""

    normal: tuple
    offset: float
    convex = True

    def __post_init__(self):
        _require(_finite(self.normal, 1) and np.any(self.normal),
                 "normal: finite nonzero vector required")
        _require(_finite(self.offset), "offset: finite number required")

    def misfit(self, dimension, norm):
        return _length_misfit(dimension, self.normal)


@dataclass(frozen=True)
class BallPrimitive:
    """Open ambient-norm ball {x : ||x - center|| < radius}."""

    center: tuple
    radius: float
    convex = True

    def __post_init__(self):
        _require(_finite(self.center, 1), "center: finite vector required")
        _require(_finite(self.radius) and self.radius > 0.0, "radius: finite number > 0 required")

    def misfit(self, dimension, norm):
        return _length_misfit(dimension, self.center)


@dataclass(frozen=True)
class Slab:
    """Open slab {x : lower < x[axis] < upper}; distances are axis-exact in any p-norm."""

    axis: int
    lower: float
    upper: float
    convex = True

    def __post_init__(self):
        _require(_is_index(self.axis) and self.axis >= 0, "axis: integer >= 0 required")
        _require(_finite(self.lower) and _finite(self.upper) and self.lower < self.upper,
                 "upper: finite and above a finite lower required")

    def misfit(self, dimension, norm):
        return "" if self.axis < dimension else f"axis out of range for dimension {dimension}"


@dataclass(frozen=True)
class BoxPrimitive:
    """Open axis-aligned box."""

    lower: tuple
    upper: tuple
    convex = True

    def __post_init__(self):
        _require(_finite(self.lower, 1), "lower: finite vector required")
        _require(_finite(self.upper, 1) and len(self.upper) == len(self.lower)
                 and all(lo < hi for lo, hi in zip(self.lower, self.upper)),
                 "upper: finite vector above lower on every axis required")

    def misfit(self, dimension, norm):
        return _length_misfit(dimension, self.lower)


@dataclass(frozen=True)
class Polygon:
    """Open simple polygon in the plane (vertex list, any orientation)."""

    vertices: tuple

    def __post_init__(self):
        _require(_finite(self.vertices, 2) and len(self.vertices) >= 3
                 and np.shape(self.vertices)[1] == 2,
                 "vertices: >= 3 finite planar vertices required")

    def misfit(self, dimension, norm):
        return "" if dimension == 2 else "polygons are planar only"

    @property
    def convex(self):
        """All turns one way, and one full turn: a star polygon turns twice."""
        V = np.asarray(self.vertices, dtype=float)
        e = np.roll(V, -1, axis=0) - V
        f = np.roll(e, -1, axis=0)
        cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
        one_way = (cross >= -1e-14).all() or (cross <= 1e-14).all()
        turning = np.arctan2(cross, (e * f).sum(axis=1)).sum()
        return bool(one_way and abs(abs(turning) - 2.0 * np.pi) < 1e-6)


@dataclass(frozen=True)
class StarlikeBody:
    """Star-like 3-D set: the open unit cylinder around the x3 axis with the
    axis ray {x1 = x2 = 0, x3 >= 1/2} deleted, glued over x3 < 1/2 to the
    open ball around (0, 0, 1/2) of radius 1.  Euclidean norm, dimension 3.

    Interior boundary distances reduce to two closed forms:
      x3 >= 1/2 : min(rho, 1 - rho)            rho = sqrt(x1^2 + x2^2)
      x3 <  1/2 : min(||x - c||, 1 - ||x - c||)  c = (0, 0, 1/2)
    since the deleted ray's tip is c and the rim circle lies on the sphere.
    """

    convex = False

    def misfit(self, dimension, norm):
        return "" if dimension == 3 and norm.kind == "euclidean" else "Euclidean and 3-D only"


def _starlike_depth(X):
    rho = np.sqrt(X[:, 0] ** 2 + X[:, 1] ** 2)
    upper = np.minimum(rho, 1.0 - rho)
    rc = np.sqrt(rho * rho + (X[:, 2] - 0.5) ** 2)
    lower = np.minimum(rc, 1.0 - rc)
    return np.where(X[:, 2] >= 0.5, upper, lower)


# ---------------------------------------------------------------------------
# removals (closed null sets deleted from the primitive intersection)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemovedPoint:
    point: tuple

    def __post_init__(self):
        _require(_finite(self.point, 1), "point: finite vector required")

    def misfit(self, dimension, norm):
        return _length_misfit(dimension, self.point)


@dataclass(frozen=True)
class RemovedSegment:
    a: tuple
    b: tuple

    def __post_init__(self):
        _require(_finite(self.a, 1), "a: finite vector required")
        _require(_finite(self.b, 1) and len(self.b) == len(self.a),
                 "b: finite vector of the length of a required")

    def misfit(self, dimension, norm):
        return _length_misfit(dimension, self.a)


@dataclass(frozen=True)
class AxisPointFamily:
    """The countable family {+-sqrt(2)(1 - 1/i) e_i : i >= 2}.

    Distances are exact: for a point supported on coordinates 1..m the
    candidates at i > m have squared distance ||x||^2 + 2 (1-1/i)^2, which
    is strictly increasing in i, so a scan up to the support plus the first
    tail term, at max(m + 1, start_index), is a certified minimum.
    Euclidean ambient norm only.
    """

    start_index: int = 2

    def __post_init__(self):
        _require(_is_index(self.start_index) and self.start_index >= 2,
                 "start_index: integer >= 2 required")

    def misfit(self, dimension, norm):
        return "" if norm.kind == "euclidean" else "the axis point family is Euclidean only"

    def distance(self, X, norm):
        m = X.shape[1]
        nn = np.sum(X * X, axis=1)
        best = np.full(X.shape[0], np.inf)
        for i in range(self.start_index, m + 1):
            c = SQRT2 * (1.0 - 1.0 / i)
            cand = nn - 2.0 * c * np.abs(X[:, i - 1]) + c * c
            best = np.minimum(best, cand)
        c_tail = SQRT2 * (1.0 - 1.0 / max(m + 1, self.start_index))
        best = np.minimum(best, nn + c_tail * c_tail)
        return np.sqrt(np.maximum(best, 0.0))


# ---------------------------------------------------------------------------
# oracle kernels
# ---------------------------------------------------------------------------
#
# Each kernel maps an (N, dim) point array to a fresh (N,) array: positive
# inside, <= 0 outside, and for interior points the exact ambient-norm
# distance to its part of the boundary.  A domain's depth is the minimum
# over its kernels.

def _axis_face_depth(X, faces):
    """Faces with a coordinate normal, ((axis, is_lower, bound), ...).

    One column per face, minimised in place into one buffer: a narrow
    ``min(axis=1)`` over an (N, k) array costs more than the arithmetic.
    Exact in any p-norm.
    """
    (j, is_lower, bound), *rest = faces
    d = X[:, j] - bound if is_lower else bound - X[:, j]
    v = np.empty_like(d)
    for j, is_lower, bound in rest:
        if is_lower:
            np.subtract(X[:, j], bound, out=v)
        else:
            np.subtract(bound, X[:, j], out=v)
        np.minimum(d, v, out=d)
    return d


def _face_depth(X, normals, offsets):
    """Oblique faces {n . x > c} with dual-normalised rows (||n||_* = 1), so
    n . x - c is the ambient-norm distance to the face's hyperplane."""
    d = X @ normals[0]
    d -= offsets[0]
    v = np.empty_like(d)
    for n, c in zip(normals[1:], offsets[1:]):
        np.dot(X, n, out=v)
        v -= c
        np.minimum(d, v, out=d)
    return d


def _ball_depth(X, center, radius, norm):
    return radius - norm.eval(X - center)


def _segment_groups(A, D, DD):
    """Sort Euclidean segments into the cheapest forms that keep the bits.

    Points and segments along the first or second axis form one group in
    which each row's along-axis coordinate comes first and the others
    follow in order, so the squared terms still add up in coordinate
    order.  Only that first coordinate is projected: the others would
    move by t * 0.  Points come first and are not projected at all, since
    b - a = 0 moves nothing.  Every other segment, one along a later axis
    among them, keeps the full projection in coordinate order.

    A group is (blocks, skip, D, DD).  A block is (lo, hi, order, A): a
    run of rows, the coordinate order of its points (a slice, so a view,
    for the identity and the planar swap) and its start points in that
    order, (dim, hi - lo, 1).  The rows from ``skip`` on are projected:
    D holds their projected coordinates of b - a and DD their guarded
    |b - a|^2, each (K - skip, 1).  Nothing is projected when no segment
    has length.
    """
    dim = A.shape[1]
    nonzero = D != 0.0
    along = nonzero.argmax(axis=1)  # 0 for a point
    point = ~nonzero.any(axis=1)
    axial = (nonzero.sum(axis=1) <= 1) & (along <= 1)
    guard = np.maximum(DD, 1e-300)
    length = bool(DD.any())

    def group(parts, projected, skip=0):
        parts = [(rows, order) for rows, order in parts if rows.size]
        if not parts:
            return None
        blocks, lo = [], 0
        for rows, order in parts:
            index = (slice(None) if order == tuple(range(dim))
                     else slice(None, None, -1) if order == (1, 0) else list(order))
            blocks.append((lo, lo + rows.size, index, A[np.ix_(rows, order)].T[:, :, None]))
            lo += rows.size
        rows = np.concatenate([rows for rows, _ in parts])[skip:]
        if not (length and rows.size):
            return tuple(blocks), skip, (), None
        Dp = np.concatenate([D[np.ix_(rows, order[:projected])] for rows, order in parts])
        return tuple(blocks), skip, tuple(d[:, None] for d in Dp[skip:].T), guard[rows, None]

    def first(j):
        return (j,) + tuple(i for i in range(dim) if i != j)

    groups = (group([(np.concatenate([np.flatnonzero(point),
                                      np.flatnonzero(axial & ~point & (along == 0))]), first(0)),
                     (np.flatnonzero(axial & (along == 1)), first(1))], 1, int(point.sum())),
              group([(np.flatnonzero(~axial), tuple(range(dim)))], dim))
    return tuple(g for g in groups if g is not None)


def _nearest_squares(P, blocks, skip, D, DD):
    """Squared distance from each column of P (dim, b) to the nearest
    segment of one group: the clamped projection, one (K, b) array per
    coordinate."""
    if len(blocks) == 1:
        (_, _, order, A), = blocks
        G = P[order, None, :] - A
    else:
        G = np.empty((P.shape[0], blocks[-1][1], P.shape[1]))
        for lo, hi, order, A in blocks:
            np.subtract(P[order, None, :], A, out=G[:, lo:hi])
    if D:
        H = G[:, skip:]  # the rows that are projected
        t = H[0] * D[0]
        w = np.empty_like(t) if len(D) > 1 else None
        for h, d in zip(H[1:], D[1:]):
            t += np.multiply(h, d, out=w)
        t /= DD
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        for h, d in zip(H[1:], D[1:]):
            h -= np.multiply(t, d, out=w)
        t *= D[0]  # the last use of t
        H[0] -= t
    G *= G
    s = G[0]
    for g in G[1:]:  # in coordinate order, in place
        s += g
    return s.min(axis=0)


class _SegmentSet:
    """Closed segments [a, b] as one kernel: the edges of non-convex polygons,
    removed segments, and removed points as zero-length segments.

    The value is the distance to the nearest segment, negated outside any of
    the polygons (even-odd crossing rule).  Euclidean distances use the
    clamped projection on one (K, block) array per coordinate, in the groups
    of ``_segment_groups``; p-norms keep the exact closed forms.  Points go
    through in blocks so the temporaries stay in cache.
    """

    BLOCK = 1 << 15  # elements of one (K, block) temporary, so the temporaries fit in L2

    def __init__(self, starts, ends, polygon_sizes, norm):
        A = np.asarray(starts, dtype=float)
        B = np.asarray(ends, dtype=float)
        D = B - A
        DD = (D * D).sum(axis=1)
        self.norm = norm
        self.block = max(16, self.BLOCK // A.shape[0])
        if norm.kind == "euclidean":
            self.groups = _segment_groups(A, D, DD)
        else:
            has_length = DD > 0.0
            self.points = A[~has_length, None, :]
            self.segments = A[has_length, None, :], D[has_length, None, :]
        # the crossing table holds the polygon edges that are not horizontal:
        # for a horizontal one (y < y1) != (y2 > y) is always False.  Vertical
        # edges come first, with their abscissa (y - y1) * 0 / dy + x1 = x1;
        # each polygon owns a run of vertical rows and a run of oblique ones.
        bounds = np.cumsum([0] + list(polygon_sizes))
        E = bounds[-1]
        vertical = (D[:E, 0] == 0.0) & (D[:E, 1] != 0.0)
        oblique = (D[:E, 0] != 0.0) & (D[:E, 1] != 0.0)
        v_at = np.concatenate([[0], np.cumsum(vertical)])[bounds].tolist()
        o_at = (np.concatenate([[0], np.cumsum(oblique)])[bounds] + v_at[-1]).tolist()
        self.polygons = tuple(
            tuple((lo, hi) for lo, hi in ((v_at[i], v_at[i + 1]), (o_at[i], o_at[i + 1]))
                  if hi > lo) or ((0, 0),)
            for i in range(len(polygon_sizes)))
        if self.polygons:
            rows = np.concatenate([np.flatnonzero(vertical), np.flatnonzero(oblique)])
            self.crossing = A[rows, 1, None], B[rows, 1, None]
            self.vertical_x1 = A[:E][vertical, 0, None]
            self.oblique = tuple(c[:E][oblique, None] for c in (A[:, 0], D[:, 0], D[:, 1]))

    def __call__(self, X):
        n, b = X.shape[0], self.block
        if n <= b:
            return self._values(X)
        out = np.empty(n)
        for s in range(0, n, b):
            out[s:s + b] = self._values(X[s:s + b])
        return out

    def _values(self, X):
        P = np.ascontiguousarray(X.T)  # (dim, b)
        dist = self._euclidean(P) if self.norm.kind == "euclidean" else self._pnorm(X)
        if self.polygons:
            np.negative(dist, out=dist, where=~self._inside(P))
        return dist

    def _euclidean(self, P):
        first, *rest = self.groups
        sq = _nearest_squares(P, *first)
        for group in rest:
            np.minimum(sq, _nearest_squares(P, *group), out=sq)
        return np.sqrt(sq, out=sq)

    def _pnorm(self, X):
        """Norm of X - p for points; for segments a ternary search on the
        convex map t -> ||X - (a + t (b - a))||, (2/3)^80 ~ 1e-14 bracket width."""
        norm = self.norm
        dist = norm.eval(X - self.points).min(axis=0, initial=np.inf)
        A, D = self.segments
        lo = np.zeros((A.shape[0], X.shape[0]))
        hi = np.ones_like(lo)
        for _ in range(80 if A.size else 0):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            f1 = norm.eval(X - (A + m1[..., None] * D))
            f2 = norm.eval(X - (A + m2[..., None] * D))
            take = f1 < f2
            hi = np.where(take, m2, hi)
            lo = np.where(take, lo, m1)
        t = 0.5 * (lo + hi)
        return np.minimum(dist, norm.eval(X - (A + t[..., None] * D)).min(axis=0, initial=np.inf))

    def _inside(self, P):
        x, y = P[0], P[1]
        y1, y2 = self.crossing
        rise = y - y1
        hit = (rise < 0.0) != (y2 > y)  # the edge crosses the horizontal line through P
        nv = self.vertical_x1.shape[0]
        hit[:nv] &= x < self.vertical_x1
        if nv < hit.shape[0]:
            x1, dx, dy = self.oblique
            xint = rise[nv:]
            xint *= dx
            xint /= dy
            xint += x1
            hit[nv:] &= x < xint
        inside = None
        for runs in self.polygons:
            (lo, hi), *more = runs
            odd = np.logical_xor.reduce(hit[lo:hi], axis=0)
            for lo, hi in more:
                odd ^= np.logical_xor.reduce(hit[lo:hi], axis=0)
            inside = odd if inside is None else inside & odd
        return inside


def _lower(primitives, removals, norm):
    """Compile primitives and removals into the domain's oracle kernels.

    Half-spaces, slabs, box faces and convex polygon edges become the face
    table: rows with a coordinate normal are evaluated per column, the
    others per row.  Non-convex polygon edges, removed segments and removed
    points become one segment set.  Balls, the star-like body and the axis
    point family keep their exact closed forms.
    """
    axis_faces, normals, offsets, kernels = [], [], [], []
    starts, ends, polygon_sizes = [], [], []

    def face(n, c):
        n = np.asarray(n, dtype=float)
        nz = np.flatnonzero(n)
        if nz.size == 1:
            j = int(nz[0])
            axis_faces.append((j, bool(n[j] > 0.0), c / n[j]))
        else:
            s = float(norm.dual_eval(n))
            normals.append(n / s)
            offsets.append(c / s)

    for p in primitives:
        if isinstance(p, HalfSpace):
            face(p.normal, p.offset)
        elif isinstance(p, Slab):
            axis_faces += [(p.axis, True, p.lower), (p.axis, False, p.upper)]
        elif isinstance(p, BoxPrimitive):
            for j, (lo, hi) in enumerate(zip(p.lower, p.upper)):
                axis_faces += [(j, True, lo), (j, False, hi)]
        elif isinstance(p, BallPrimitive):
            kernels.append(partial(_ball_depth, center=np.asarray(p.center, dtype=float),
                                   radius=p.radius, norm=norm))
        elif isinstance(p, StarlikeBody):
            kernels.append(_starlike_depth)
        elif isinstance(p, Polygon):
            V = np.asarray(p.vertices, dtype=float)
            W = np.roll(V, -1, axis=0)
            if p.convex:
                ccw = np.sum(V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]) >= 0.0
                for v, e in zip(V, W - V):
                    n = np.array([-e[1], e[0]]) if ccw else np.array([e[1], -e[0]])
                    if n.any():  # repeated vertices add no edge
                        face(n, float(n @ v))
            else:
                starts += list(V)
                ends += list(W)
                polygon_sizes.append(len(V))
    if axis_faces:
        kernels.append(partial(_axis_face_depth, faces=tuple(axis_faces)))
    if normals:
        kernels.append(partial(_face_depth, normals=tuple(normals), offsets=tuple(offsets)))
    for r in removals:
        if isinstance(r, RemovedPoint):
            starts.append(r.point)
            ends.append(r.point)
        elif isinstance(r, RemovedSegment):
            starts.append(r.a)
            ends.append(r.b)
        else:
            kernels.append(partial(r.distance, norm=norm))
    if starts:
        kernels.append(_SegmentSet(starts, ends, polygon_sizes, norm))
    return tuple(kernels)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Open set: intersection of primitives minus closed removals.

    ``depth_many`` returns exact boundary distances for interior points and
    non-positive values outside (usable as an inside mask); the public
    ``boundary_distance`` validates interiority and raises otherwise.  The
    primitives and removals are checked against the dimension and norm and
    compiled into flat kernels once, here, and every oracle evaluation goes
    through ``depth_many``.  It is the one domain class: the star-like 3-D
    set is its ``StarlikeBody`` primitive.
    """

    dimension: int
    primitives: tuple = ()
    removals: tuple = ()
    norm: NormSpec = EUCLIDEAN
    name: str = ""

    def __post_init__(self):
        _require(_is_index(self.dimension) and self.dimension >= 2,
                 "dimension: integer >= 2 required")
        _require(isinstance(self.name, str), "name: string required")
        _require(self.primitives or self.removals,
                 "primitives: a domain needs at least one primitive or removal")
        for field_name, kinds in (("primitives", _PRIMITIVES), ("removals", _REMOVALS)):
            for i, part in enumerate(getattr(self, field_name)):
                problem = (part.misfit(self.dimension, self.norm) if isinstance(part, kinds)
                           else f"not a {field_name[:-1]}: {type(part).__name__}")
                if problem:
                    raise InvalidInputError(f"{field_name}[{i}]: {problem}")
        object.__setattr__(self, "_kernels", _lower(self.primitives, self.removals, self.norm))

    @property
    def is_convex(self):
        return not self.removals and all(p.convex for p in self.primitives)

    def depth_many(self, X):
        X, _ = _as_points(X, self.dimension)
        first, *rest = self._kernels
        d = first(X)
        for kernel in rest:
            np.minimum(d, kernel(X), out=d)
        return d

    def contains_many(self, X):
        return self.depth_many(X) > 0.0

    def contains(self, x):
        """Membership in the open set; dimension-checked."""
        X, _ = _as_points(x, self.dimension)
        return bool(self.contains_many(X)[0])

    def boundary_distance_many(self, X):
        X, _ = _as_points(X, self.dimension)
        d = self.depth_many(X)
        if (d <= 0.0).any():
            raise DomainViolationError("point outside (or on the boundary of) the domain")
        return d

    def boundary_distance(self, x):
        X, _ = _as_points(x, self.dimension)
        return float(self.boundary_distance_many(X)[0])

    def window_hint(self):
        """Axis bounds implied by the primitives (None per side if unbounded)."""
        lo = [None] * self.dimension
        hi = [None] * self.dimension

        def bound(j, l, h):
            if l is not None:
                lo[j] = l if lo[j] is None else max(lo[j], l)
            if h is not None:
                hi[j] = h if hi[j] is None else min(hi[j], h)

        for p in self.primitives:
            if isinstance(p, Slab):
                bound(p.axis, p.lower, p.upper)
            elif isinstance(p, BoxPrimitive):
                for j in range(self.dimension):
                    bound(j, p.lower[j], p.upper[j])
            elif isinstance(p, BallPrimitive):
                c = np.asarray(p.center, dtype=float)
                for j in range(self.dimension):
                    bound(j, c[j] - p.radius, c[j] + p.radius)
            elif isinstance(p, Polygon):
                V = np.asarray(p.vertices, dtype=float)
                for j in range(2):
                    bound(j, V[:, j].min(), V[:, j].max())
            elif isinstance(p, HalfSpace):
                n = np.asarray(p.normal, dtype=float)
                j = int(np.argmax(np.abs(n)))
                if np.abs(n[j]) > 0.999999 * np.linalg.norm(n):
                    # axis-aligned half-space bounds one side
                    side = p.offset / n[j]
                    if n[j] > 0:
                        bound(j, side, None)
                    else:
                        bound(j, None, side)
            elif isinstance(p, StarlikeBody):
                bound(0, -1.0, 1.0)
                bound(1, -1.0, 1.0)
                bound(2, -0.5, None)
        return lo, hi


_PRIMITIVES = (HalfSpace, BallPrimitive, Slab, BoxPrimitive, Polygon, StarlikeBody)
_REMOVALS = (RemovedPoint, RemovedSegment, AxisPointFamily)


# ---------------------------------------------------------------------------
# polylines
# ---------------------------------------------------------------------------

@dataclass
class Polyline:
    """Finite path: ordered vertices, endpoints pinned for the solver."""

    vertices: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 2:
            raise InvalidInputError("polyline needs >= 2 vertices")
        if not np.isfinite(V).all():
            raise InvalidInputError("non-finite vertex")
        seg = np.diff(V, axis=0)
        if (np.sqrt(np.sum(seg * seg, axis=1)) == 0.0).any():
            raise InvalidInputError("consecutive polyline vertices must be distinct")
        self.vertices = V

    @property
    def dimension(self):
        return self.vertices.shape[1]

    def reversed(self):
        return Polyline(self.vertices[::-1].copy())

    def mirrored(self, axis):
        """Reflection across the hyperplane {x_axis = 0}."""
        V = self.vertices.copy()
        V[:, axis] = -V[:, axis]
        return Polyline(V)

    def resample(self, count):
        """Uniform arclength resampling with ``count`` vertices (endpoints kept)."""
        return Polyline(_resample_paths(self.vertices[None], count)[0])


def _resample_paths(Vs, count):
    """Uniform arclength resampling of every path in Vs (P, m, dim) to
    ``count`` vertices, endpoints kept exactly."""
    P, m, dim = Vs.shape
    seg = np.sqrt(np.sum(np.diff(Vs, axis=1) ** 2, axis=2))
    s = np.concatenate([np.zeros((P, 1)), np.cumsum(seg, axis=1)], axis=1)
    # each path's np.linspace(0, s[-1], count), which scales differently
    # when the step underflows to 0
    k = np.arange(count, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = s[:, -1:] / (count - 1)
        t = np.where(step == 0.0, k / (count - 1) * s[:, -1:], k * step)
    t[:, 0], t[:, -1] = 0.0, s[:, -1]  # t[0] is 0 * inf = NaN on a path of infinite length
    # np.interp per coordinate: the last knot j with s[j] <= t, from the
    # rank of t among the knots (a stable sort puts knots before equal t)
    order = np.argsort(np.concatenate([s, t], axis=1), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(m + count), axis=1)
    j = rank[:, m:] - np.arange(count) - 1
    last = (j >= m - 1)[:, :, None]
    j = np.minimum(j, m - 2) + m * np.arange(P)[:, None]  # rows of the flat knots
    s0, s1 = s.ravel()[j][:, :, None], s.ravel()[j + 1][:, :, None]
    V = Vs.reshape(P * m, dim)
    f0, f1 = V[j], V[j + 1]
    t = t[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (f1 - f0) / (s1 - s0)
        out = slope * (t - s0) + f0
        bad = np.isnan(out)
        if bad.any():  # a NaN from one end retries from the other, then takes a flat value
            out[bad] = (slope * (t - s1) + f1)[bad]
            flat = np.isnan(out) & (f0 == f1)
            out[flat] = f0[flat]
    np.copyto(out, f0, where=s0 == t)
    np.copyto(out, Vs[:, -1:], where=last)
    out[:, 0] = Vs[:, 0]
    out[:, -1] = Vs[:, -1]
    return out


def certify_segment(domain, a, b):
    """True iff the segment [a, b] provably stays inside the domain.

    Uses the 1-Lipschitz property of boundary distance: a segment with
    d(a) + d(b) > ||b - a|| cannot exit.  Otherwise bisect, at most 24
    levels deep; a midpoint outside is a definite failure.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    stack = [(a, b, 24)]
    while stack:
        pa, pb, depth = stack.pop()
        dd = domain.depth_many(np.stack([pa, pb]))
        if dd.min() <= 0.0:
            return False
        length = float(np.linalg.norm(pb - pa))
        if dd[0] + dd[1] > length:
            continue
        if depth == 0:
            return False
        mid = 0.5 * (pa + pb)
        stack.append((pa, mid, depth - 1))
        stack.append((mid, pb, depth - 1))
    return True


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def half_plane(dimension=2):
    """Upper half-space {x_n > 0}."""
    normal = [0.0] * dimension
    normal[-1] = 1.0
    return DomainSpec(dimension, (HalfSpace(tuple(normal), 0.0),), name="half-plane")


def punctured_space(dimension=2):
    """R^n minus the origin."""
    return DomainSpec(
        dimension, (), (RemovedPoint((0.0,) * dimension),), name="punctured-plane"
    )


def strip(dimension=2, axis=None, half_width=1.0):
    """Slab {-half_width < x_axis < half_width}; axis defaults to the second coordinate."""
    axis = 1 if axis is None else axis
    name = "strip" if dimension == 2 else "slab3d"
    return DomainSpec(
        dimension, (Slab(axis, -half_width, half_width),), name=name
    )


def unit_ball(dimension=2, norm=EUCLIDEAN):
    return DomainSpec(
        dimension,
        (BallPrimitive((0.0,) * dimension, 1.0),),
        norm=norm,
        name="unit-ball",
    )


def symmetric_box(dimension=2, half_width=1.0):
    return DomainSpec(
        dimension,
        (BoxPrimitive((-half_width,) * dimension, (half_width,) * dimension),),
        name="box",
    )


def prolongation_polygon():
    """The eight-vertex polygon with the corridor [-4,-1] x (-1,1)."""
    verts = ((-4.0, 1.0), (-1.0, 1.0), (-1.0, 4.0), (4.0, 4.0),
             (4.0, -4.0), (-1.0, -4.0), (-1.0, -1.0), (-4.0, -1.0))
    return DomainSpec(2, (Polygon(verts),), name="polygon-P")


def starlike3d():
    """The star-like 3-D set (see ``StarlikeBody``)."""
    return DomainSpec(3, (StarlikeBody(),), name="starlike3d")


def l2_section(n):
    """Coordinate section of the separable non-geodesic example.

    Dimension n+1 holds every coordinate the curves through span{e1, e_n,
    e_{n+1}} touch; the removed family is scanned in full with a certified
    truncation, so distances match the infinite-dimensional values.
    """
    if n < 2:
        raise InvalidInputError("section index must be >= 2")
    dim = n + 1
    return DomainSpec(
        dim,
        (),
        (RemovedPoint((0.0,) * dim), AxisPointFamily()),
        name=f"l2-section({n})",
    )
