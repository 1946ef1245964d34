"""The benchmark's workloads: seeded inputs, one pass of library calls, and
the checks on what the pass returned.

Every workload builds its inputs from the seed alone and hands qhtk only
the generated arrays.  ``run_pass`` is the timed part; ``check`` runs
outside the timing and counts failed requests against attempted ones.

A request fails when it raises, returns a non-finite value, undercuts the
lower bound log(1 + |x-y|/d) by more than ``BOUND_SLACK``, or misses its
closed-form reference by more than the tolerance the test suite pins.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from qhtk import ball, renorm, solver
from qhtk.geometry import half_plane, prolongation_polygon, punctured_space
from qhtk.geometry import strip, symmetric_box, unit_ball
from qhtk.cases import build_omega_n
from qhtk.metric import (
    halfplane_distance_oracle,
    punctured_distance_oracle,
    qh_lower_bound,
)

BOUND_SLACK = 1e-6
FIELD_ABS_TOL = 2e-3   # field grade, as in test_field_axis_and_vertical_values
SOLVE_REL_TOL = 1e-3   # single solves, acceptance criteria 1-2
RADIUS_ABS_TOL = 1e-4  # unit-ball radii, acceptance criterion 9
BOX_REL_TOL = 1e-3     # box radii and norm: symmetric agreement and re-solve


def _no_span(name, request=None):
    return nullcontext()


def _attempt(fn, *args, **kwargs):
    """Call into the library; a raise is recorded and counted as a failure."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # every raise is a counted failure, never fatal
        traceback.print_exc(file=sys.stderr)
        return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    max_ref_err: float = 0.0
    notes: list = field(default_factory=list)

    def count(self, attempted, failed, what):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.notes.append(f"{what}: {int(failed)} of {int(attempted)} failed")

    def reference(self, err):
        """Worst reference error; failed (non-finite) requests are counted
        by ``count`` and left out here."""
        err = err[np.isfinite(err)]
        if err.size:
            self.max_ref_err = max(self.max_ref_err, float(err.max()))


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _lower_bound_many(domain, x, Y):
    """log(1 + |x - y| / min(d(x), d(y))) for each row y of Y."""
    gap = np.sqrt(((Y - x) ** 2).sum(axis=1))
    d = np.minimum(domain.boundary_distance_many(Y), domain.boundary_distance(x))
    return np.log1p(gap / d)


# ---------------------------------------------------------------------------
# field: cold distance fields, contour, tangent gaps
# ---------------------------------------------------------------------------

@dataclass
class FieldPiece:
    label: str
    domain: object
    center: np.ndarray
    window: tuple
    resolution: int
    level: float

    def lattice(self):
        """The node set distance_field samples: the same arange per axis."""
        h = 1.0 / self.resolution
        (x0, x1), (y0, y1) = self.window
        xs = np.arange(x0, x1 + 0.5 * h, h)
        ys = np.arange(y0, y1 + 0.5 * h, h)
        return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


def _snapped_window(c, below, cells, h):
    """``cells`` cells of an absolute lattice of spacing h, starting at or
    just below c - below, so the centre's offset inside its cell varies
    with c while the node count does not."""
    lo = math.floor((c - below) / h)
    return lo * h, (lo + cells) * h


class Field:
    """Half-plane field (every node checked against the closed form) and a
    strip field at the CLI default resolution 24 (centre-line nodes checked
    against |x - c|).  The seed draws the centre offsets and the levels."""

    name = "field"

    def __init__(self, seed, small=False):
        rng = np.random.default_rng(seed)
        hp_res, st_res = (6, 12) if small else (20, 24)
        cx = rng.uniform(-2.0, 2.0)
        h = 1.0 / hp_res
        hp = FieldPiece(
            "half-plane", half_plane(), np.array([cx, 1.0]),
            (_snapped_window(cx, 1.0, 2 * hp_res, h), (0.4, 2.4)), hp_res,
            rng.uniform(0.6, 0.72),
        )
        h = 1.0 / st_res
        sx = int(rng.integers(-st_res, st_res + 1)) * h
        half_x, half_y = math.ceil(0.58 / h) * h, math.floor(0.55 / h) * h
        st = FieldPiece(
            "strip", strip(), np.array([sx, 0.0]),
            ((sx - half_x, sx + half_x), (-half_y, half_y)), st_res,
            rng.uniform(0.35, 0.5),
        )
        self.pieces = [hp, st]
        self.nodes = [p.lattice() for p in self.pieces]
        self.valid = [p.domain.depth_many(P) > 1e-9 for p, P in zip(self.pieces, self.nodes)]
        self.requests = int(sum(v.sum() for v in self.valid))
        self.digest = _digest(
            [np.r_[p.center, np.ravel(p.window), p.resolution, p.level] for p in self.pieces]
        )

    def run_pass(self, span=_no_span):
        out = []
        for p in self.pieces:
            with span("bench.field", p.label):
                fld = _attempt(ball.distance_field, p.domain, p.center, p.window, p.resolution)
                con = gaps = None
                if fld is not None:
                    con = _attempt(ball.ball_contour, fld, p.level)
                if con is not None:
                    gaps = _attempt(ball.contour_tangent_gaps, con)
            out.append((fld, con, gaps))
        return out

    def check(self, out, tally):
        for p, P, valid, (fld, con, gaps) in zip(self.pieces, self.nodes, self.valid, out):
            n = int(valid.sum())
            if fld is None or fld.values.size != valid.size:
                tally.count(n, n, f"{p.label} field")
                tally.count(1, 1, f"{p.label} contour")
                continue
            v = fld.values.reshape(-1)[valid]
            X = P[valid]
            bad = ~np.isfinite(v)
            with np.errstate(invalid="ignore"):
                bad |= v < _lower_bound_many(p.domain, p.center, X) - BOUND_SLACK
            if p.label == "half-plane":
                ref = np.ones(n, dtype=bool)
                exact = np.array([halfplane_distance_oracle(p.center, x) for x in X])
            else:
                ref = np.abs(X[:, 1]) < 1e-12
                exact = np.abs(X[:, 0] - p.center[0])
            with np.errstate(invalid="ignore"):
                err = np.abs(v[ref] - exact[ref])
            bad[ref] |= ~(err <= FIELD_ABS_TOL)
            tally.reference(err)
            tally.count(n, bad.sum(), f"{p.label} field nodes")
            closed = con is not None and len(con.loops) == 1 and gaps is not None \
                and gaps.size > 0 and np.isfinite(gaps).all()
            tally.count(1, not closed, f"{p.label} contour (one closed loop)")


# ---------------------------------------------------------------------------
# geodesic: single qh_distance requests
# ---------------------------------------------------------------------------

# half-plane pair shapes; the seed scales and translates them, which are
# symmetries of the half-plane
HALF_PLANE_SHAPES = (((-1.0, 1.0), (1.0, 1.0)),
                     ((-0.5, 0.6), (0.7, 1.8)),
                     ((0.0, 0.5), (0.3, 2.0)))


class Geodesic:
    """Single-path requests: a polygon-P pair whose chord leaves the domain
    (lattice seed), an omega-3 pair straddling a slit, and punctured-plane
    and half-plane pairs checked against closed forms.

    The seed draws mirror images (corner, slit) of the polygon-P and
    omega-3 pairs, the axis, sign and length of the punctured-plane pairs,
    and scales and translations of the half-plane pairs.  It does not perturb the polygon-P and omega-3 endpoints: a
    perturbation of 0.001 already moves the descent's iteration count by
    10-20 percent, so the pass time would follow the seed, not the code.
    """

    name = "geodesic"

    def __init__(self, seed, small=False):
        rng = np.random.default_rng(seed)
        P, O, PP, HP = prolongation_polygon(), build_omega_n(3), punctured_space(), half_plane()
        pairs = []
        # at x = -1 the chord is at |y| = 1.16, inside the removed quadrant
        # next to the re-entrant corner (-1, +-1), so grid_init builds the
        # lattice
        sgn = rng.choice([-1.0, 1.0])
        pairs.append(("polygon-P", P, np.array([-1.6, 0.5 * sgn]),
                      np.array([-0.6, 1.6 * sgn]), None))
        # the chord crosses the slit x = sqrt(3)/2, 1/2 <= |y| <= 1
        c, sgn = math.sqrt(3.0) / 2.0, rng.choice([-1.0, 1.0])
        pairs.append(("omega-3", O, np.array([c - 0.25, 0.75 * sgn]),
                      np.array([c + 0.25, 0.75 * sgn]), None))
        # the chord runs through the removed origin.  The pairs lie on the
        # axes, where d(x) + d(-x) and |2x| are exact, so certify_segment
        # sees the chord touch the origin; at other angles rounding lets it
        # certify the chord in a few percent of directions and qh_distance
        # raises (see "Findings" in README.md and the xfail test).
        for k in range(1 if small else 2):
            x = np.zeros(2)
            x[k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.1)
            pairs.append(("punctured-plane", PP, x, -x, punctured_distance_oracle(x, -x)))
        for a, b in HALF_PLANE_SHAPES[:1 if small else 3]:
            scale, shift = rng.uniform(0.8, 1.25), np.array([rng.uniform(-2.0, 2.0), 0.0])
            x, y = scale * np.array(a) + shift, scale * np.array(b) + shift
            pairs.append(("half-plane", HP, x, y, halfplane_distance_oracle(x, y)))
        self.pairs = pairs
        self.requests = len(pairs)
        self.digest = _digest([np.r_[x, y] for _, _, x, y, _ in pairs])

    def run_pass(self, span=_no_span):
        out = []
        for i, (label, domain, x, y, _) in enumerate(self.pairs):
            with span("bench.geodesic", f"{label}#{i}"):
                out.append(_attempt(solver.qh_distance, domain, x, y))
        return out

    def check(self, out, tally):
        for (label, domain, x, y, exact), res in zip(self.pairs, out):
            k = res.qh_length if res is not None else math.nan
            ok = math.isfinite(k) and k >= qh_lower_bound(domain, x, y) - BOUND_SLACK
            if exact is not None:
                err = abs(k - exact) / exact
                tally.reference(np.array([err]))
                ok = ok and err <= SOLVE_REL_TOL
            tally.count(1, not ok, f"{label} pair")


# ---------------------------------------------------------------------------
# radii: directional radii, induced norm, triangle check
# ---------------------------------------------------------------------------

def _directions(count, rotation):
    th = rotation + np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def _square_orbits(dirs):
    """Index groups of directions that the square's symmetry group (the
    reflections in the axes and the diagonals) maps onto one another."""
    th = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 0.5 * math.pi)
    key = np.round(np.minimum(th, 0.5 * math.pi - th), 9)
    return [np.nonzero(key == k)[0] for k in np.unique(key)]


def _box_radii_ok(box, dirs, rho, level):
    """Checks on radii of the box's level-``level`` ball that do not share
    the solver's own bracket: radii of one symmetry orbit must agree, and
    the first direction of each orbit is re-solved with ``qh_distance``,
    whose length at rho u must match the level."""
    ok = np.isfinite(rho) & (rho > 0)
    for orbit in _square_orbits(dirs):
        with np.errstate(invalid="ignore"):
            ref = np.median(rho[orbit])
            ok[orbit] &= np.abs(rho[orbit] - ref) <= BOX_REL_TOL * ref
        i = orbit[0]
        if ok[i]:
            res = _attempt(solver.qh_distance, box, np.zeros(2), rho[i] * dirs[i])
            k = res.qh_length if res is not None else math.nan
            ok[i] = abs(k - level) <= BOX_REL_TOL * level
    return ok


class Radii:
    """Warm, fixed-vertex-count batch rounds: directional radii on the unit
    ball (checked against 1 - e^-r) and on the box, then the induced box
    norm at r = 1 and its triangle check.  Box radii and the norm's table
    directions are checked by symmetry and by re-solving one direction per
    symmetry orbit (``_box_radii_ok``).

    The seed draws the rotation of the unit-ball directions, both radii
    levels and the triangle_check samples.  The box directions and the
    induced norm stay fixed: a batch runs until its slowest path is done,
    and a rotation of the 12 box directions moves the box time by 25
    percent, a change of 0.02 in the norm's level by 10 percent.
    """

    name = "radii"

    def __init__(self, seed, small=False):
        rng = np.random.default_rng(seed)
        n_ub, n_box = (8, 4) if small else (64, 12)
        self.ub, self.box = unit_ball(), symmetric_box()
        self.ub_dirs = _directions(n_ub, rng.uniform(0.0, 2.0 * math.pi / n_ub))
        self.ub_level = rng.uniform(0.9, 1.1)
        self.box_dirs = _directions(n_box, math.pi / n_box)
        self.box_level = rng.uniform(1.48, 1.52)
        self.norm_level = 1.0
        self.table = 8 if small else 16
        self.precheck_pairs = 4 if small else 10
        self.samples = 100 if small else 1000
        self.triangle_seed = int(rng.integers(0, 2**31))
        self.requests = n_ub + n_box + self.table
        self.digest = _digest([
            self.ub_dirs, self.box_dirs,
            [self.ub_level, self.box_level, self.norm_level, self.table,
             self.precheck_pairs, self.samples, self.triangle_seed],
        ])

    def run_pass(self, span=_no_span):
        origin = np.zeros(2)
        with span("bench.radii", "unit-ball"):
            ub = _attempt(ball.directional_radii, self.ub, origin, self.ub_dirs, self.ub_level)
        with span("bench.radii", "box"):
            bx = _attempt(ball.directional_radii, self.box, origin, self.box_dirs, self.box_level)
        with span("bench.radii", "induced-norm"):
            norm = _attempt(renorm.InducedNorm, self.box, self.norm_level, table=self.table,
                            precheck_pairs=self.precheck_pairs)
            viol = None
            if norm is not None:
                viol = _attempt(renorm.triangle_check, norm, samples=self.samples,
                                rng_seed=self.triangle_seed)
        return ub, bx, norm, viol

    @staticmethod
    def _radii_ok(rho, level, exit_distance):
        """Finite, positive, and within the analytic bracket that the
        lower bound gives along the ray (centre depth 1 in both domains)."""
        with np.errstate(invalid="ignore"):
            cap = np.minimum(exit_distance * -np.expm1(-level), np.expm1(level))
            return np.isfinite(rho) & (rho > 0) & (rho <= cap * (1 + 1e-9))

    def check(self, out, tally):
        ub, bx, norm, viol = out
        n = len(self.ub_dirs)
        if ub is None:
            tally.count(n, n, "unit-ball radii")
        else:
            ok = self._radii_ok(ub, self.ub_level, 1.0)
            err = np.abs(ub - (-np.expm1(-self.ub_level)))
            tally.reference(err)
            tally.count(n, (~(ok & (err <= RADIUS_ABS_TOL))).sum(), "unit-ball radii")
        n = len(self.box_dirs)
        if bx is None:
            tally.count(n, n, "box radii")
        else:
            exit_distance = 1.0 / np.abs(self.box_dirs).max(axis=1)
            ok = self._radii_ok(bx, self.box_level, exit_distance)
            ok &= _box_radii_ok(self.box, self.box_dirs, bx, self.box_level)
            tally.count(n, (~ok).sum(), "box radii")
        if norm is None:
            tally.count(self.table, self.table, "induced-norm table")
        else:
            # the table's knots, as InducedNorm._build_table places them
            U = _directions(self.table, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                rho = 1.0 / norm.eval_many(U)
            ok = _box_radii_ok(self.box, U, rho, self.norm_level)
            tally.count(self.table, (~ok).sum(), "induced-norm table")
        tally.count(self.samples, self.samples if viol is None else len(viol),
                    "triangle_check samples")


WORKLOADS = {w.name: w for w in (Field, Geodesic, Radii)}
