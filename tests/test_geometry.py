import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qhtk.geometry import (
    AxisPointFamily,
    BallPrimitive,
    BoxPrimitive,
    DomainSpec,
    DomainViolationError,
    EUCLIDEAN,
    HalfSpace,
    InvalidInputError,
    NormSpec,
    Polygon,
    Polyline,
    RemovedPoint,
    RemovedSegment,
    Slab,
    _resample_paths,
    _SegmentSet,
    certify_segment,
    half_plane,
    l2_section,
    prolongation_polygon,
    punctured_space,
    starlike3d,
    strip,
    symmetric_box,
    unit_ball,
)
from qhtk.cases import build_omega_n
from qhtk.io import parse_domain_spec, resolve_domain

SQRT3 = np.sqrt(3.0)


# --- norms ------------------------------------------------------------------

def test_norm_euclidean_pythagoras():
    assert NormSpec().eval(np.array([3.0, 4.0])) == 5.0


def test_norm_zero_vector():
    assert NormSpec("p", 2.0).eval(np.zeros(4)) == 0.0


def test_norm_p4_value():
    assert NormSpec("p", 4.0).eval(np.array([1.0, 1.0])) == pytest.approx(
        2.0 ** 0.25, abs=1e-12
    )


def test_norm_rejects_bad_exponent():
    with pytest.raises(InvalidInputError):
        NormSpec("p", 1.0)
    with pytest.raises(InvalidInputError):
        NormSpec("p", np.inf)


@settings(max_examples=120, deadline=None)
@given(
    p=st.one_of(st.none(), st.floats(1.05, 10.0)),
    v=st.lists(st.floats(-50, 50), min_size=2, max_size=5),
    w=st.lists(st.floats(-50, 50), min_size=2, max_size=5),
    lam=st.floats(-4, 4),
)
def test_norm_axioms(p, v, w, lam):
    norm = NormSpec() if p is None else NormSpec("p", p)
    n = min(len(v), len(w))
    a = np.array(v[:n])
    b = np.array(w[:n])
    na, nb = norm.eval(a), norm.eval(b)
    assert na >= 0
    assert norm.eval(lam * a) == pytest.approx(abs(lam) * na, rel=1e-10, abs=1e-10)
    assert norm.eval(a + b) <= na + nb + 1e-9 * (1 + na + nb)
    if na == 0:
        assert np.all(a == 0)


def reference_norm(norm, v):
    """Norm by ``np.sum`` over the last axis, with the same underflow rescue."""
    v = np.asarray(v, dtype=float)
    if norm.kind == "euclidean":
        out = np.sqrt(np.sum(v * v, axis=-1))
    else:
        out = np.sum(np.abs(v) ** norm.p, axis=-1) ** (1.0 / norm.p)
    zero = out == 0.0
    if not zero.any():
        return out
    vmax = np.max(np.abs(v), axis=-1)
    bad = zero & (vmax > 0.0)
    if np.any(bad):
        scaled = reference_norm(norm, v[bad] / vmax[bad, ..., None] if v.ndim > 1 else v / vmax)
        if v.ndim > 1:
            out = np.where(bad, 0.0, out)
            out[bad] = vmax[bad] * scaled
        else:
            out = vmax * scaled
    return out


@pytest.mark.parametrize("norm", [NormSpec(), NormSpec("p", 1.5), NormSpec("p", 4.0)],
                         ids=["euclidean", "p1.5", "p4"])
@pytest.mark.parametrize("dim", range(1, 8))
def test_norm_column_sums_match_np_sum(norm, dim):
    # up to 7 coordinates np.sum adds a row in sequence, as eval does
    rng = np.random.default_rng(dim)
    V = rng.normal(size=(2000, dim)) * 10.0 ** rng.uniform(-8, 8, size=(2000, 1))
    V[:5] = 0.0
    V[5:8, 0] = -0.0
    # |v|^p underflows to 0 (1e-170 for the Euclidean norm): rescued rows
    tiny = 10.0 ** (-340.0 / norm.exponent) * rng.normal(size=(7, dim))
    for X in (V, V[:, None, :], np.vstack([V, tiny]), tiny, V[9], tiny[0]):
        got = norm.eval(X)
        ref = reference_norm(norm, X)
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref)
    assert (np.sum(np.abs(tiny) ** norm.exponent, axis=-1) == 0.0).all()
    assert (norm.eval(tiny) > 0.0).all()


def test_norm_rescue_touches_only_zero_rows():
    rng = np.random.default_rng(5)
    V = rng.normal(size=(100_000, 2))
    V[123] = 0.0
    V[4567] = (1e-170, -1e-170)
    for norm in (NormSpec(), NormSpec("p", 4.0)):
        got = norm.eval(V)
        assert np.array_equal(got, reference_norm(norm, V))
        assert got[123] == 0.0
        assert got[4567] > 0.0


# --- membership and boundary distance ---------------------------------------

def test_strip_contains_far_point():
    assert strip().contains([100.0, 0.0])


def test_punctured_origin_removed():
    assert not punctured_space().contains([0.0, 0.0])


def test_polygon_contains_paper_point():
    assert prolongation_polygon().contains([-2.0, 0.0])


def test_halfplane_distance():
    assert half_plane().boundary_distance([0.0, 2.0]) == 2.0


def test_punctured_distance_to_origin():
    assert punctured_space().boundary_distance([1.0, 0.0]) == 1.0


def test_boundary_query_raises_on_boundary():
    with pytest.raises(DomainViolationError):
        half_plane().boundary_distance([1.0, 0.0])
    with pytest.raises(DomainViolationError):
        punctured_space().boundary_distance([0.0, 0.0])


def test_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        strip().contains([0.0, 0.0, 0.0])


def test_omega5_distance_brute_force():
    # independent scan over every wall, removed point and slit
    om = build_omega_n(5)
    p = np.array([-0.5, 0.0])
    right = 3 * SQRT3 + 1
    cands = []
    for wall in (
        np.stack([np.full(30001, -1.0), np.linspace(-1, 1, 30001)], axis=1),
        np.stack([np.full(30001, right), np.linspace(-1, 1, 30001)], axis=1),
        np.stack([np.linspace(-1, right, 30001), np.full(30001, -1.0)], axis=1),
        np.stack([np.linspace(-1, right, 30001), np.full(30001, 1.0)], axis=1),
    ):
        cands.append(np.sqrt(((wall - p) ** 2).sum(axis=1)).min())
    for j in range(4):
        cands.append(np.linalg.norm(p - np.array([j * SQRT3, 0.0])))
    for j in range(3):
        c = (2 * j + 1) * SQRT3 / 2
        for sgn in (1, -1):
            seg = np.stack([np.full(20001, c), sgn * np.linspace(0.5, 1.0, 20001)], axis=1)
            cands.append(np.sqrt(((seg - p) ** 2).sum(axis=1)).min())
    assert om.boundary_distance(p) == pytest.approx(min(cands), abs=1e-9)


def test_omega_removed_point_membership():
    om = build_omega_n(3)
    assert not om.contains([SQRT3, 0.0])
    assert om.contains([-0.5, 0.0])


@pytest.mark.parametrize("domain", [
    strip(), half_plane(), unit_ball(), symmetric_box(),
    prolongation_polygon(), build_omega_n(3),
])
def test_boundary_distance_lipschitz(domain):
    # |d(x) - d(y)| <= |x - y| along random pairs
    rng = np.random.default_rng(11)
    lo, hi = domain.window_hint()
    lo = [(-3.0 if b is None else b) for b in lo]
    hi = [(3.0 if b is None else b) for b in hi]
    pts = rng.uniform(lo, hi, size=(40000, domain.dimension))
    inside = domain.contains_many(pts)
    pts = pts[inside]
    n = (len(pts) // 2) * 2
    a, b = pts[:n:2], pts[1:n:2]
    assert n >= 20000, "need >= 1e4 sampled pairs"
    da = domain.boundary_distance_many(a)
    db = domain.boundary_distance_many(b)
    gap = np.sqrt(((a - b) ** 2).sum(axis=1))
    assert (np.abs(da - db) <= gap + 1e-12).all()


@pytest.mark.parametrize("domain", [strip(), half_plane(), unit_ball(), symmetric_box()])
def test_boundary_distance_concave_on_convex(domain):
    rng = np.random.default_rng(5)
    lo, hi = domain.window_hint()
    lo = [(-3.0 if b is None else b) for b in lo]
    hi = [(3.0 if b is None else b) for b in hi]
    pts = rng.uniform(lo, hi, size=(6000, domain.dimension))
    pts = pts[domain.contains_many(pts)]
    n = (len(pts) // 2) * 2
    a, b = pts[:n:2], pts[1:n:2]
    da = domain.boundary_distance_many(a)
    db = domain.boundary_distance_many(b)
    dm = domain.boundary_distance_many(0.5 * (a + b))
    assert (dm >= 0.5 * (da + db) - 1e-12).all()


def test_constructed_near_removal_distance():
    dom = punctured_space()
    delta = 1e-7
    assert dom.boundary_distance([delta, 0.0]) <= delta + 1e-12


# --- the compiled oracle against per-primitive reference formulas ------------
#
# The reference evaluates every primitive and removal on its own, with the
# closed forms the oracle had before it was compiled into kernels.

def _ref_segment_distance(X, a, b, norm):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    if norm.kind == "euclidean":
        dd = float(d @ d)
        if dd == 0.0:
            return norm.eval(X - a)
        t = np.clip(((X - a) @ d) / dd, 0.0, 1.0)
        return np.sqrt(np.sum((X - (a + t[:, None] * d)) ** 2, axis=1))
    lo = np.zeros(X.shape[0])
    hi = np.ones(X.shape[0])
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = norm.eval(X - (a + m1[:, None] * d))
        f2 = norm.eval(X - (a + m2[:, None] * d))
        take = f1 < f2
        hi = np.where(take, m2, hi)
        lo = np.where(take, lo, m1)
    t = 0.5 * (lo + hi)
    return norm.eval(X - (a + t[:, None] * d))


def _ref_polygon_depth(vertices, X, norm):
    V = np.asarray(vertices, dtype=float)
    n = V.shape[0]
    dist = np.full(X.shape[0], np.inf)
    inside = np.zeros(X.shape[0], dtype=bool)
    x, y = X[:, 0], X[:, 1]
    for i in range(n):
        dist = np.minimum(dist, _ref_segment_distance(X, V[i], V[(i + 1) % n], norm))
        (x1, y1), (x2, y2) = V[i], V[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)  # even-odd crossing rule
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return np.where(inside, dist, -dist)


def reference_depth(domain, X):
    norm = domain.norm
    d = np.full(X.shape[0], np.inf)
    for p in domain.primitives:
        if isinstance(p, HalfSpace):
            n = np.asarray(p.normal, dtype=float)
            v = (X @ n - p.offset) / float(norm.dual_eval(n))
        elif isinstance(p, BallPrimitive):
            v = p.radius - norm.eval(X - np.asarray(p.center, dtype=float))
        elif isinstance(p, Slab):
            t = X[:, p.axis]
            v = np.minimum(t - p.lower, p.upper - t)
        elif isinstance(p, BoxPrimitive):
            lo = np.asarray(p.lower, dtype=float)
            hi = np.asarray(p.upper, dtype=float)
            v = np.minimum(X - lo, hi - X).min(axis=1)
        else:
            v = _ref_polygon_depth(p.vertices, X, norm)
        d = np.minimum(d, v)
    for r in domain.removals:
        if isinstance(r, RemovedPoint):
            v = norm.eval(X - np.asarray(r.point, dtype=float))
        elif isinstance(r, RemovedSegment):
            v = _ref_segment_distance(X, r.a, r.b, norm)
        else:
            v = r.distance(X, norm)
        d = np.minimum(d, v)
    return d


P4 = NormSpec("p", 4.0)
PRESET_NAMES = ("half-plane", "punctured-plane", "strip", "slab3d", "unit-ball", "box",
                "polygon-P", "omega-n:3", "omega-n:5", "l2-section:3")
FILE_SPECS = {
    "convex-hexagon": {
        "dimension": 2,
        "primitives": [
            {"type": "polygon", "vertices": [[1.0, 0.0], [0.5, 0.9], [-0.5, 0.9],
                                             [-1.0, 0.0], [-0.5, -0.9], [0.5, -0.9]]},
            {"type": "half-space", "normal": [1.0, 2.0], "offset": -1.5},
        ],
        "removals": [{"type": "segment", "a": [-0.3, -0.2], "b": [0.4, 0.3]},
                     {"type": "point", "point": [0.1, -0.5]}],
    },
    "clockwise-notch": {
        "dimension": 2,
        "primitives": [
            {"type": "polygon", "vertices": [[-2.0, -1.0], [-2.0, 1.5], [0.0, 0.2],
                                             [2.0, 1.5], [2.0, -1.0]]},
            {"type": "ball", "center": [0.0, 0.0], "radius": 2.2},
        ],
        "removals": [{"type": "segment", "a": [-1.0, -0.5], "b": [1.0, 0.4]}],
    },
    "clockwise-triangle": {
        "dimension": 2,
        "primitives": [
            {"type": "polygon", "vertices": [[-1.0, -0.8], [0.2, 1.3], [1.4, -0.6]]},
        ],
        "removals": [{"type": "point", "point": [0.2, 0.0]}],
    },
    "box-3d": {
        "dimension": 3,
        "primitives": [
            {"type": "box", "lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 2.0]},
            {"type": "half-space", "normal": [1.0, 1.0, 1.0], "offset": -1.0},
            {"type": "slab", "axis": 2, "lower": -0.5, "upper": 1.5},
        ],
        "removals": [{"type": "segment", "a": [0.0, 0.0, 0.0], "b": [0.5, 0.2, 0.9]},
                     {"type": "point", "point": [-0.5, 0.5, 0.0]}],
    },
}


def _p4(doc):
    return dict(doc, norm={"kind": "p", "p": 4})


@pytest.fixture(scope="module")
def oracle_domains(tmp_path_factory):
    doms = {name: resolve_domain(name) for name in PRESET_NAMES}
    doms.update({
        f"{name}/p4": DomainSpec(d.dimension, d.primitives, d.removals, norm=P4)
        for name, d in list(doms.items())
        if not any(isinstance(r, AxisPointFamily) for r in d.removals)
    })
    folder = tmp_path_factory.mktemp("specs")
    for name, doc in FILE_SPECS.items():
        for tag, spec in ((name, doc), (f"{name}/p4", _p4(doc))):
            path = folder / (tag.replace("/", "-") + ".json")
            path.write_text(json.dumps(spec))
            doms["@" + tag] = resolve_domain("@" + str(path))
    return doms


def _window(domain):
    lo, hi = domain.window_hint()
    lo = np.array([-3.0 if b is None else b for b in lo]) - 0.5
    hi = np.array([3.0 if b is None else b for b in hi]) + 0.5
    return lo, hi


def test_file_specs_cover_both_polygon_kernels(oracle_domains):
    assert oracle_domains["@convex-hexagon"].primitives[0].convex
    assert oracle_domains["@clockwise-triangle"].primitives[0].convex
    assert not oracle_domains["@clockwise-notch"].primitives[0].convex


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_oracle_matches_reference_formulas(oracle_domains, data):
    name = data.draw(st.sampled_from(sorted(oracle_domains)), label="domain")
    domain = oracle_domains[name]
    u = data.draw(arrays(float, (24, domain.dimension), elements=st.floats(0.0, 1.0)))
    lo, hi = _window(domain)
    X = lo + u * (hi - lo)
    got = domain.depth_many(X)
    ref = reference_depth(domain, X)
    # a closed form rounds at the scale of the coordinates, so membership is
    # compared away from that rounding band and values relative to max(d, 1)
    far = np.abs(ref) > 1e-12 * (1.0 + np.abs(X).max())
    assert np.array_equal((got > 0.0)[far], (ref > 0.0)[far])
    inside = far & (ref > 0.0)
    assert (np.abs(got - ref)[inside] <= 1e-14 * np.maximum(ref[inside], 1.0)).all()


@pytest.mark.parametrize("name", ["half-plane", "strip", "unit-ball", "box",
                                  "punctured-plane", "omega-n:3"])
def test_oracle_bit_identical_on_reference_presets(name):
    domain = resolve_domain(name)
    lo, hi = _window(domain)
    X = np.random.default_rng(3).uniform(lo, hi, size=(20000, domain.dimension))
    X[:8] = np.round(X[:8])  # lattice points: exact ties and zeros
    assert np.array_equal(domain.depth_many(X), reference_depth(domain, X))


# depth_many hashed on the points of ``_pin_points``, as the per-coordinate
# (dim, K, block) segment kernel computed them before it was split into groups
PINNED_DEPTH = {
    "polygon-P": "c216f583afa1caec",
    "omega-n:3": "b0c27ba1b2ab9721",
    "omega-n:5": "41e683245ca6fa8f",
    "punctured-plane": "e0367af3f419774b",
    "punctured-space-3d": "fcc44db97b698498",
    "@convex-hexagon": "dc50b7398d21b13a",
    "@clockwise-notch": "78508f95b204f722",
    "segment-axes-3d": "817672bd69f4ec29",
    "two-notched-polygons": "d776b06643f25e85",
    "underflow-only": "e0367af3f419774b",
}
SEGMENT_AXES_3D = DomainSpec(3, (BoxPrimitive((-2.0,) * 3, (2.0,) * 3),), (
    RemovedSegment((0.1, 0.2, 0.3), (1.1, 0.2, 0.3)),
    RemovedSegment((0.1, -0.2, 0.3), (0.1, 0.8, 0.3)),
    RemovedSegment((-0.5, 0.2, -0.3), (-0.5, 0.2, 0.9)),
    RemovedSegment((0.0, 0.0, 0.0), (0.5, 0.2, 0.9)),
    RemovedSegment((0.0, -0.3, 0.3), (1e-160, -0.3, 0.3)),  # |b - a|^2 underflows
    RemovedPoint((-1.0, 1.0, 0.5)),
), name="segment-axes-3d")


def _pinned_domain(name):
    if name.startswith("@"):
        return parse_domain_spec(FILE_SPECS[name[1:]])
    if name == "punctured-space-3d":
        return punctured_space(3)
    if name == "segment-axes-3d":
        return SEGMENT_AXES_3D
    if name == "two-notched-polygons":  # each polygon has vertical and oblique edges
        return DomainSpec(2, (
            Polygon(((-2.0, -1.0), (-2.0, 1.5), (0.0, 0.2), (2.0, 1.5), (2.0, -1.0))),
            Polygon(((-3.0, -3.0), (3.0, -3.0), (3.0, 3.0), (0.0, 0.5), (-3.0, 3.0))),
        ), (RemovedSegment((0.5, -0.5), (0.5, 0.4)),))
    if name == "underflow-only":  # no segment has a nonzero |b - a|^2
        return DomainSpec(2, (), (RemovedSegment((0.0, 0.0), (1e-170, 0.0)),))
    return resolve_domain(name)


def _segments(domain):
    for p in domain.primitives:
        if isinstance(p, Polygon) and not p.convex:
            V = np.asarray(p.vertices, dtype=float)
            yield from zip(V, np.roll(V, -1, axis=0))
    for r in domain.removals:
        if isinstance(r, RemovedPoint):
            yield np.asarray(r.point, dtype=float), np.asarray(r.point, dtype=float)
        elif isinstance(r, RemovedSegment):
            yield np.asarray(r.a, dtype=float), np.asarray(r.b, dtype=float)


def _pin_points(domain):
    """Seeded window points, points at t = 0, 1/4, 1/2, 1 on every segment,
    and points with +0.0 and -0.0 coordinates."""
    lo, hi = _window(domain)
    rng = np.random.default_rng(19)
    X = rng.uniform(lo, hi, size=(3000, domain.dimension))
    on = [a + t * (b - a) for a, b in _segments(domain) for t in (0.0, 0.25, 0.5, 1.0)]
    zeros = np.repeat(X[:64], 2, axis=0)
    zeros[0::2, 0] = 0.0
    zeros[1::2, 0] = -0.0
    zeros[:32, 1:] = np.where(rng.random((32, domain.dimension - 1)) < 0.5, 0.0, -0.0)
    return np.concatenate([X, np.asarray(on).reshape(-1, domain.dimension), zeros])


def _depth_hash(name):
    domain = _pinned_domain(name)
    d = domain.depth_many(_pin_points(domain))
    return hashlib.sha256(np.ascontiguousarray(d).tobytes()).hexdigest()[:16]


def test_segment_axes_domain_covers_every_segment_form():
    segs = next(k for k in SEGMENT_AXES_3D._kernels if isinstance(k, _SegmentSet))
    rows = [hi - lo for group in segs.groups for lo, hi, _, _ in group[0]]
    assert rows == [3, 1, 2]  # along x (with the point), along y, along z and oblique


@pytest.mark.parametrize("name", sorted(PINNED_DEPTH))
def test_segment_oracle_bits_are_pinned(name):
    assert _depth_hash(name) == PINNED_DEPTH[name]


def test_star_polygon_is_not_convex():
    star = [(np.cos(a), np.sin(a)) for a in 4 * np.pi / 5 * np.arange(5)]
    assert not Polygon(tuple(star)).convex
    assert Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))).convex


def test_half_space_rejects_zero_normal():
    with pytest.raises(InvalidInputError):
        HalfSpace((0.0, 0.0), 1.0)


# --- the countable axis family ----------------------------------------------

def test_l2_distance_e1():
    x = np.zeros(6)
    x[0] = 1.0
    assert l2_section(5).boundary_distance(x) == pytest.approx(1.0, abs=1e-15)


def test_l2_distance_adjacent_point():
    # offsets from the removed point at sqrt2 / 2 along e2 shrink to zero;
    # squared-form cancellation caps the relative accuracy near eps^2/eps
    for eps, rel in ((1e-3, 1e-9), (1e-5, 1e-5)):
        x = np.zeros(4)
        x[1] = np.sqrt(2.0) * 0.5
        x[0] = eps
        assert l2_section(3).boundary_distance(x) == pytest.approx(eps, rel=rel)


def _raw_scan(x, start_index=2, removed_origin=True):
    """Distance from x to the family {+-sqrt(2)(1 - 1/i) e_i : i >= start_index}
    (and the origin), scanned over a million indices."""
    nn = float(x @ x)
    idx = np.arange(start_index, 10**6 + 1, dtype=float)
    c = np.sqrt(2.0) * (1 - 1 / idx)
    coord = np.zeros_like(idx)
    support = np.abs(x[start_index - 1:])
    coord[:support.size] = support
    best = float((nn - 2 * c * coord + c * c).min())
    return np.sqrt(min(best, nn) if removed_origin else best)


def test_l2_distance_matches_raw_scan():
    # the solver's oracle equals a scan over a million indices
    dom = l2_section(8)
    rng = np.random.default_rng(2)
    for _ in range(12):
        x = np.zeros(9)
        x[0] = rng.uniform(-1.2, 1.2)
        i = rng.integers(1, 8)
        x[i] = rng.uniform(-1.2, 1.2)
        if np.linalg.norm(x) < 1e-9:
            continue
        assert dom.boundary_distance(x) == pytest.approx(_raw_scan(x), abs=1e-12)


@pytest.mark.parametrize("start_index", [2, 3, 5, 9])
@pytest.mark.parametrize("dimension", [3, 5])
def test_axis_family_tail_matches_raw_scan(dimension, start_index):
    # the tail term sits at index max(m + 1, start_index), never below the family
    dom = DomainSpec(dimension, (), (AxisPointFamily(start_index),))
    X = np.random.default_rng(dimension * start_index).uniform(-1.3, 1.3, (20, dimension))
    X[0] = 0.0
    X[0, 0] = 0.3
    for x in X:
        assert dom.boundary_distance(x) == pytest.approx(
            _raw_scan(x, start_index, removed_origin=False), abs=1e-12)


def test_axis_family_tail_above_the_support():
    dom = DomainSpec(3, (), (AxisPointFamily(5),))
    assert dom.boundary_distance([0.3, 0.0, 0.0]) == pytest.approx(np.sqrt(0.09 + 1.28), abs=1e-15)


def test_l2_midpoint_of_gamma3():
    # midpoint of the diagonal half circle: closed form sqrt(5)/3
    dom = l2_section(3)
    x = np.zeros(dom.dimension)
    x[2] = x[3] = 1.0 / np.sqrt(2.0)
    d = dom.boundary_distance(x)
    assert d == pytest.approx(np.sqrt(5.0) / 3.0, abs=1e-12)


# --- starlike domain oracle vs brute force -----------------------------------

def test_starlike_distance_brute_force():
    dom = starlike3d()
    rng = np.random.default_rng(7)
    # dense boundary sampling: cylinder wall, deleted ray, sphere cap
    th = np.linspace(0, 2 * np.pi, 240, endpoint=False)
    zs = np.linspace(0.5, 3.0, 240)
    wall = np.stack(np.meshgrid(th, zs), axis=-1).reshape(-1, 2)
    wall_pts = np.stack([np.cos(wall[:, 0]), np.sin(wall[:, 0]), wall[:, 1]], axis=1)
    ray_pts = np.stack([np.zeros(800), np.zeros(800), np.linspace(0.5, 3.5, 800)], axis=1)
    u = rng.normal(size=(4000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    sph = np.array([0, 0, 0.5]) + u
    sph = sph[sph[:, 2] <= 0.5]
    boundary = np.vstack([wall_pts, ray_pts, sph])
    for _ in range(60):
        p = rng.uniform([-1, -1, -0.4], [1, 1, 2.0])
        if not dom.contains(p):
            continue
        brute = np.sqrt(((boundary - p) ** 2).sum(axis=1)).min()
        assert dom.boundary_distance(p) <= brute + 1e-9
        assert dom.boundary_distance(p) >= brute - 2e-2  # sampling gap


# --- polylines ----------------------------------------------------------------

def test_polyline_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        Polyline(np.array([[0.0, 0.0], [0.0, 0.0]]))


def reference_resample(Vs, count):
    """Per-path np.linspace and np.interp, the loop _resample_paths replaces."""
    P, m, dim = Vs.shape
    seg = np.sqrt(np.sum(np.diff(Vs, axis=1) ** 2, axis=2))
    s = np.concatenate([np.zeros((P, 1)), np.cumsum(seg, axis=1)], axis=1)
    out = np.empty((P, count, dim))
    for p in range(P):
        t = np.linspace(0.0, s[p, -1], count)
        for j in range(dim):
            out[p, :, j] = np.interp(t, s[p], Vs[p, :, j])
    out[:, 0] = Vs[:, 0]
    out[:, -1] = Vs[:, -1]
    return out


RESAMPLE_CASES = ("random", "repeated", "zero-length", "underflow", "denormal", "lattice",
                  "field")


@pytest.mark.parametrize("case", RESAMPLE_CASES)
def test_resample_paths_keeps_the_bits_of_np_interp(case):
    rng = np.random.default_rng(RESAMPLE_CASES.index(case))
    for _ in range(40):
        P, m, dim = int(rng.integers(1, 30)), int(rng.integers(2, 25)), int(rng.integers(2, 4))
        count = int(rng.integers(2, 40))
        Vs = rng.normal(size=(P, m, dim)) * 10.0 ** rng.integers(-3, 3)
        if case == "repeated":  # runs of equal vertices, so equal knots
            idx = np.sort(rng.integers(0, m, size=(P, m)), axis=1)
            Vs = np.take_along_axis(Vs, idx[:, :, None], axis=1)
        elif case == "zero-length":  # mixed with paths of positive length
            Vs[::3] = Vs[::3, :1]
        elif case == "underflow":  # squared steps underflow, so segments read 0
            Vs[:, 1:] = Vs[:, :1] + np.cumsum(rng.normal(size=(P, m - 1, dim)) * 1e-170, axis=1)
            Vs[1::2, -1] += 1.0
        elif case == "denormal":  # the linspace step underflows to 0
            Vs = Vs[:, :1] + rng.normal(size=(P, m, dim)) * 1e-310
        elif case == "lattice":  # exact ties between knots and samples
            Vs = np.round(Vs * 4.0)
        elif case == "field":  # the field levels: 17 -> 9 -> 17 vertices
            t = np.linspace(0.0, 1.0, 17)[None, :, None]
            Vs = rng.normal(size=(P, 1, 2)) + t * rng.normal(size=(P, 1, 2))
            Vs[:, 1:-1] += 1e-3 * rng.normal(size=(P, 15, 2))
            Vs = _resample_paths(Vs, 9)
            count = 17
        with np.errstate(all="ignore"):
            want = reference_resample(Vs, count)
        assert np.array_equal(_resample_paths(Vs, count), want)


def test_crossing_table_skips_horizontal_edges():
    V = np.array(prolongation_polygon().primitives[0].vertices, dtype=float)
    segs = _SegmentSet(V, np.roll(V, -1, axis=0), [len(V)], EUCLIDEAN)
    assert segs.vertical_x1.shape == (4, 1)  # the four vertical edges of eight
    rng = np.random.default_rng(4)
    X = rng.uniform(-5.0, 5.0, size=(4000, 2))
    X[:2000, 1] = rng.choice(np.unique(V[:, 1]), 2000)  # at a horizontal edge's height
    X[:500, 0] = rng.choice(np.unique(V[:, 0]), 500)  # on its end points and beyond
    X[2000:2500] = V[rng.integers(0, len(V), 500)]
    # the even-odd rule over every edge, a unit divisor for horizontal ones
    x, y = X[:, 0], X[:, 1]
    A, D = V, np.roll(V, -1, axis=0) - V
    xint = y[None, :] - A[:, 1:2]
    crosses = (xint < 0.0) != (A[:, 1:2] + D[:, 1:2] > y[None, :])
    xint *= D[:, 0:1]
    xint /= np.where(D[:, 1:2] == 0.0, 1.0, D[:, 1:2])
    xint += A[:, 0:1]
    want = np.logical_xor.reduce((x < xint) & crosses, axis=0)
    assert np.array_equal(segs._inside(np.ascontiguousarray(X.T)), want)


def test_polyline_resample_keeps_endpoints():
    p = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    q = p.resample(17)
    assert np.allclose(q.vertices[0], [0, 0])
    assert np.allclose(q.vertices[-1], [1, 1])
    length = [np.linalg.norm(np.diff(P.vertices, axis=0), axis=1).sum() for P in (p, q)]
    assert length[1] == pytest.approx(length[0], rel=1e-12)


def test_certify_segment():
    dom = punctured_space()
    assert certify_segment(dom, np.array([1.0, 0.5]), np.array([1.0, -0.5]))
    assert not certify_segment(dom, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
