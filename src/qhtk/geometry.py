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


class CertificationError(QHError):
    """A truncation / resolution certificate could not be established."""


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


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Ambient norm: Euclidean or an l^p norm with exponent p in (1, inf)."""

    kind: str = "euclidean"
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "p"):
            raise InvalidInputError(f"unknown norm kind {self.kind!r}")
        if self.kind == "p":
            if self.p is None or not np.isfinite(self.p) or self.p <= 1.0:
                raise InvalidInputError("p-norm exponent must be finite and > 1")

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


def norm_eval(norm: NormSpec, v):
    """Evaluate ``norm`` on the vector v (scalar result).

    Raises on non-finite input; returns 0 iff v = 0.
    """
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise InvalidInputError("norm_eval expects a single vector")
    if not np.isfinite(a).all():
        raise InvalidInputError("non-finite vector")
    return float(norm.eval(a))


# ---------------------------------------------------------------------------
# primitives (intersected to form the open set)
# ---------------------------------------------------------------------------
#
# Primitives and removals are plain data.  ``DomainSpec`` lowers them once,
# at construction, into the flat oracle kernels further below.

@dataclass(frozen=True)
class HalfSpace:
    """Open half-space {x : normal . x > offset}."""

    normal: tuple
    offset: float
    convex = True

    def __post_init__(self):
        if not np.any(np.asarray(self.normal, dtype=float)):
            raise InvalidInputError("half-space needs a nonzero normal")


@dataclass(frozen=True)
class BallPrimitive:
    """Open ambient-norm ball {x : ||x - center|| < radius}."""

    center: tuple
    radius: float
    convex = True


@dataclass(frozen=True)
class Slab:
    """Open slab {x : lower < x[axis] < upper}; distances are axis-exact in any p-norm."""

    axis: int
    lower: float
    upper: float
    convex = True


@dataclass(frozen=True)
class BoxPrimitive:
    """Open axis-aligned box."""

    lower: tuple
    upper: tuple
    convex = True


@dataclass(frozen=True)
class Polygon:
    """Open simple polygon in the plane (vertex list, any orientation)."""

    vertices: tuple

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise InvalidInputError("polygon needs >= 3 planar vertices")

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


# ---------------------------------------------------------------------------
# removals (closed null sets deleted from the primitive intersection)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemovedPoint:
    point: tuple


@dataclass(frozen=True)
class RemovedSegment:
    a: tuple
    b: tuple


@dataclass(frozen=True)
class AxisPointFamily:
    """The countable family {+-sqrt(2)(1 - 1/i) e_i : i >= 2}.

    Distances are exact: for a point supported on coordinates 1..m the
    candidates at i > m have squared distance ||x||^2 + 2 (1-1/i)^2, which
    is strictly increasing in i, so a scan up to the support plus the first
    tail term is a certified minimum.  Euclidean ambient norm only.
    """

    start_index: int = 2

    def distance(self, X, norm):
        if norm.kind != "euclidean":
            raise InvalidInputError("axis point family requires the Euclidean norm")
        m = X.shape[1]
        nn = np.sum(X * X, axis=1)
        best = np.full(X.shape[0], np.inf)
        for i in range(max(2, self.start_index), m + 1):
            c = SQRT2 * (1.0 - 1.0 / i)
            cand = nn - 2.0 * c * np.abs(X[:, i - 1]) + c * c
            best = np.minimum(best, cand)
        c_tail = SQRT2 * (1.0 - 1.0 / (m + 1))
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


class _SegmentSet:
    """Closed segments [a, b] as one kernel: the edges of non-convex polygons,
    removed segments, and removed points as zero-length segments.

    The value is the distance to the nearest segment, negated outside any of
    the polygons (even-odd crossing rule).  Euclidean distances use the
    clamped projection on (dim, K, block) arrays; p-norms keep the exact
    closed forms.  Points go through in blocks so the temporaries stay in
    cache.
    """

    BLOCK = 1 << 15  # elements of one (K, block) temporary, so the (dim, K, block) ones fit in L2

    def __init__(self, starts, ends, polygon_sizes, norm):
        A = np.asarray(starts, dtype=float)
        B = np.asarray(ends, dtype=float)
        D = B - A
        DD = (D * D).sum(axis=1)
        self.norm = norm
        self.A = A.T[:, :, None]  # (dim, K, 1)
        self.D = D.T[:, :, None] if DD.any() else None
        self.DD = np.maximum(DD, 1e-300)[:, None]
        self.block = max(16, self.BLOCK // A.shape[0])
        if norm.kind != "euclidean":
            has_length = DD > 0.0
            self.points = A[~has_length, None, :]
            self.segments = A[has_length, None, :], D[has_length, None, :]
        # the crossing table holds the polygon edges that are not horizontal:
        # for a horizontal one (y < y1) != (y2 > y) is always False
        bounds = np.cumsum([0] + list(polygon_sizes))
        E = bounds[-1]
        keep = D[:E, 1] != 0.0
        bounds = np.concatenate([[0], np.cumsum(keep)])[bounds]
        self.polygons = tuple(zip(bounds[:-1], bounds[1:]))
        if self.polygons:
            self.crossing = tuple(c[:E][keep, None] for c in (
                A[:, 1], B[:, 1], A[:, 0], D[:, 0], D[:, 1]))

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
        G = P[:, None, :] - self.A  # (dim, K, b)
        if self.D is not None:  # some segment has length
            t = np.add.reduce(G * self.D, axis=0)
            t /= self.DD
            np.maximum(t, 0.0, out=t)
            np.minimum(t, 1.0, out=t)
            G -= t * self.D
        G *= G
        return np.sqrt(np.add.reduce(G, axis=0).min(axis=0))

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
        y1, y2, x1, dx, dy = self.crossing
        xint = y - y1
        crosses = (xint < 0.0) != (y2 > y)
        xint *= dx
        xint /= dy
        xint += x1
        hit = x < xint
        hit &= crosses
        inside = None
        for lo, hi in self.polygons:
            odd = np.logical_xor.reduce(hit[lo:hi], axis=0)
            inside = odd if inside is None else inside & odd
        return inside


def _lower(primitives, removals, norm):
    """Compile primitives and removals into the domain's oracle kernels.

    Half-spaces, slabs, box faces and convex polygon edges become the face
    table: rows with a coordinate normal are evaluated per column, the
    others per row.  Non-convex polygon edges, removed segments and removed
    points become one segment set.  Balls and removals with no kernel here
    (the axis point family) keep their exact closed forms.
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
        else:
            raise InvalidInputError(f"unknown primitive {type(p).__name__}")
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
    primitives and removals are compiled into flat kernels once, here, and
    every oracle evaluation goes through ``depth_many``.
    """

    dimension: int
    primitives: tuple = ()
    removals: tuple = ()
    norm: NormSpec = EUCLIDEAN
    name: str = ""

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidInputError("domains need dimension >= 2")
        if not self.primitives and not self.removals:
            raise InvalidInputError("domain must have a non-empty boundary")
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
        for p in self.primitives:
            if isinstance(p, Slab):
                lo[p.axis] = p.lower if lo[p.axis] is None else max(lo[p.axis], p.lower)
                hi[p.axis] = p.upper if hi[p.axis] is None else min(hi[p.axis], p.upper)
            elif isinstance(p, BoxPrimitive):
                for j in range(self.dimension):
                    lo[j] = p.lower[j] if lo[j] is None else max(lo[j], p.lower[j])
                    hi[j] = p.upper[j] if hi[j] is None else min(hi[j], p.upper[j])
            elif isinstance(p, BallPrimitive):
                c = np.asarray(p.center, dtype=float)
                for j in range(self.dimension):
                    l, h = c[j] - p.radius, c[j] + p.radius
                    lo[j] = l if lo[j] is None else max(lo[j], l)
                    hi[j] = h if hi[j] is None else min(hi[j], h)
            elif isinstance(p, Polygon):
                V = np.asarray(p.vertices, dtype=float)
                for j in range(2):
                    l, h = V[:, j].min(), V[:, j].max()
                    lo[j] = l if lo[j] is None else max(lo[j], l)
                    hi[j] = h if hi[j] is None else min(hi[j], h)
            elif isinstance(p, HalfSpace):
                n = np.asarray(p.normal, dtype=float)
                j = int(np.argmax(np.abs(n)))
                if np.abs(n[j]) > 0.999999 * np.linalg.norm(n):
                    # axis-aligned half-space bounds one side
                    if n[j] > 0:
                        lo[j] = p.offset / n[j] if lo[j] is None else max(lo[j], p.offset / n[j])
                    else:
                        hi[j] = p.offset / n[j] if hi[j] is None else min(hi[j], p.offset / n[j])
        return lo, hi


@dataclass(frozen=True)
class StarlikeDomain3D:
    """Star-like 3-D set: the open unit cylinder around the x3 axis with the
    axis ray {x1 = x2 = 0, x3 >= 1/2} deleted, glued over x3 < 1/2 to the
    open ball around (0, 0, 1/2) of radius 1.

    Interior boundary distances reduce to two closed forms:
      x3 >= 1/2 : min(rho, 1 - rho)            rho = sqrt(x1^2 + x2^2)
      x3 <  1/2 : min(||x - c||, 1 - ||x - c||)  c = (0, 0, 1/2)
    since the deleted ray's tip is c and the rim circle lies on the sphere.
    """

    dimension: int = 3
    norm: NormSpec = EUCLIDEAN
    name: str = "starlike3d"
    is_convex = False

    def depth_many(self, X):
        X, _ = _as_points(X, 3)
        rho = np.sqrt(X[:, 0] ** 2 + X[:, 1] ** 2)
        upper = np.minimum(rho, 1.0 - rho)
        rc = np.sqrt(rho * rho + (X[:, 2] - 0.5) ** 2)
        lower = np.minimum(rc, 1.0 - rc)
        return np.where(X[:, 2] >= 0.5, upper, lower)

    def contains_many(self, X):
        return self.depth_many(X) > 0.0

    def contains(self, x):
        X, _ = _as_points(x, 3)
        return bool(self.contains_many(X)[0])

    def boundary_distance_many(self, X):
        d = self.depth_many(X)
        if (d <= 0.0).any():
            raise DomainViolationError("point outside (or on the boundary of) the domain")
        return d

    def boundary_distance(self, x):
        X, _ = _as_points(x, 3)
        return float(self.boundary_distance_many(X)[0])

    def window_hint(self):
        return [-1.0, -1.0, -0.5], [1.0, 1.0, None]


# ---------------------------------------------------------------------------
# operations on the section of the separable example
# ---------------------------------------------------------------------------

def l2_example_distance(x, truncation):
    """Distance from x to {0} union {+-sqrt(2)(1-1/i) e_i : i >= 2}.

    ``x`` is the dense coordinate block of a point supported on finitely
    many basis vectors; coordinates beyond ``len(x)`` are zero.  The scan
    runs over i <= truncation and is certified exact by the monotone tail
    bound sqrt(||x||^2 + 2 (1 - 1/(truncation+1))^2).

    Raises CertificationError when the truncation does not cover the
    support of x (the tail bound then says nothing about skipped indices).
    """
    X, _ = _as_points(x)
    m = X.shape[1]
    if truncation < 2:
        raise InvalidInputError("truncation must be >= 2")
    nn = float(np.sum(X * X))
    if nn == 0.0:
        raise DomainViolationError("point coincides with the removed origin")
    support = 0
    nz = np.nonzero(X[0])[0]
    if nz.size:
        support = int(nz.max()) + 1  # 1-based basis index
    if truncation < support:
        raise CertificationError(
            f"truncation {truncation} below support index {support}; raise it"
        )
    best = nn  # removed origin
    top = min(truncation, m)
    for i in range(2, top + 1):
        c = SQRT2 * (1.0 - 1.0 / i)
        best = min(best, nn - 2.0 * c * abs(float(X[0, i - 1])) + c * c)
    if truncation > m:
        c = SQRT2 * (1.0 - 1.0 / (m + 1))
        best = min(best, nn + c * c)
    c_tail = SQRT2 * (1.0 - 1.0 / (truncation + 1))
    tail_bound = nn + c_tail * c_tail
    if best > tail_bound + 1e-15:
        raise CertificationError("tail bound below scanned minimum; raise truncation")
    if best <= 0.0:
        raise DomainViolationError("point coincides with a removed axis point")
    return float(np.sqrt(best))


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

    def euclid_length(self):
        seg = np.diff(self.vertices, axis=0)
        return float(np.sqrt(np.sum(seg * seg, axis=1)).sum())

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
