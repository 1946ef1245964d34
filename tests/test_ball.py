import numpy as np
import pytest

from qhtk.ball import (
    InvalidInputError,
    _boundary_ray_limits,
    ProbeRejectedError,
    ResolutionError,
    TruncatedContourError,
    ball_contour,
    convexity_check,
    cusp_free_check,
    directional_radii,
    distance_field,
    orthogonality_ratio,
    smoothness_profile,
)
from qhtk.cases import build_omega_n
from qhtk.geometry import (
    half_plane,
    prolongation_polygon,
    punctured_space,
    strip,
    symmetric_box,
    unit_ball,
)
from qhtk.metric import halfplane_distance_oracle
from qhtk.renorm import hausdorff_convergence
from qhtk.solver import qh_distance

HP = half_plane()
ST = strip()


def hp_oracle(center):
    return lambda p: halfplane_distance_oracle(center, np.asarray(p, dtype=float))


@pytest.fixture(scope="module")
def strip_field():
    return distance_field(ST, [0.0, 0.0], ((-1.3, 1.3), (-0.8, 0.8)), 20)


@pytest.fixture(scope="module")
def strip_contour(strip_field):
    return ball_contour(strip_field, 1.0)


def test_field_axis_and_vertical_values(strip_field):
    f = strip_field
    ix = np.argmin(np.abs(f.xs - 1.0))
    iy = np.argmin(np.abs(f.ys))
    assert f.values[ix, iy] == pytest.approx(abs(f.xs[ix]), abs=2e-3)
    jx = np.argmin(np.abs(f.xs))
    jy = np.argmin(np.abs(f.ys - 0.6))
    assert f.values[jx, jy] == pytest.approx(-np.log(1 - abs(f.ys[jy])), abs=2e-3)


def test_field_matches_halfplane_oracle():
    fld = distance_field(HP, [0.0, 1.0], ((-0.5, 0.5), (0.6, 1.7)), 12,
                         vertex_count=65)
    X, Y = np.meshgrid(fld.xs, fld.ys, indexing="ij")
    oracle = np.vectorize(lambda a, b: halfplane_distance_oracle([0.0, 1.0], [a, b]))
    exact = oracle(X, Y)
    err = np.nanmax(np.abs(fld.values - exact))
    assert err < 1e-4


def test_field_marks_outside_nodes():
    fld = distance_field(ST, [0.0, 0.0], ((-0.4, 0.4), (-0.3, 1.1)), 10)
    assert np.isnan(fld.values).any()  # window pokes out of the strip
    finite = np.isfinite(fld.values)
    assert finite.any()
    assert (fld.values[finite] >= 0).all()


def test_contour_crossings_strip(strip_field, strip_contour):
    # the unit ball contour crosses the axes at (+-1, 0) and (0, +-(1-1/e))
    pts = np.concatenate([L for L in strip_contour.loops])
    for target in ([1, 0], [-1, 0], [0, 1 - np.exp(-1)], [0, -(1 - np.exp(-1))]):
        d = np.sqrt(((pts - np.array(target)) ** 2).sum(axis=1)).min()
        assert d < 2.5 * strip_contour.h * strip_contour.h + 3 * strip_contour.h  # loose lattice bound
        assert d < 0.1


def test_contour_is_closed_and_ccw(strip_contour):
    for L in strip_contour.loops:
        x, y = L[:, 0], L[:, 1]
        area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert area > 0


def test_contour_vertex_consistency(strip_field, strip_contour):
    # |k(v) - r| <= 2 * (local gradient bound) * h at every contour vertex
    gx, gy = np.gradient(strip_field.values, strip_field.xs, strip_field.ys)
    gbound = np.nanmax(np.sqrt(gx**2 + gy**2))
    pts = np.concatenate(strip_contour.loops)
    kv = strip_field.interp(pts)
    assert np.nanmax(np.abs(kv - strip_contour.level)) <= 2 * gbound * strip_field.h


def test_unit_ball_contour_radius():
    dom = unit_ball()
    r = 1.0
    fld = distance_field(dom, [0.0, 0.0], ((-0.75, 0.75), (-0.75, 0.75)), 24)
    ct = ball_contour(fld, r)
    expect = 1 - np.exp(-r)
    pts = np.concatenate(ct.loops)
    rad = np.sqrt((pts**2).sum(axis=1))
    assert np.abs(rad - expect).max() < 4e-3


def test_halfplane_contour_is_euclid_circle():
    fld = distance_field(HP, [0.0, 1.0], ((-1.3, 1.3), (0.3, 2.85)), 25)
    ct = ball_contour(fld, 1.0)
    cc = np.array([0.0, np.cosh(1.0)])
    pts = np.concatenate(ct.loops)
    rad = np.sqrt(((pts - cc) ** 2).sum(axis=1))
    assert np.abs(rad - np.sinh(1.0)).max() < 3e-2 * ct.h / 0.04  # C * h


def test_ball_nesting(strip_field):
    c1 = ball_contour(strip_field, 0.6)
    pts = np.concatenate(c1.loops)
    kv = strip_field.interp(pts)
    assert (kv < 1.0).all()


def test_field_resolution_consistency(strip_field):
    # node values are independent solves; lattice coordinates generated at
    # the two resolutions coincide only to ~1e-15, and the descent exit
    # wobbles at the field grade below 5e-4, so shared nodes must agree to
    # that tolerance across resolution doubling
    half = distance_field(ST, [0.0, 0.0], ((-1.3, 1.3), (-0.8, 0.8)), 10)
    fine = strip_field  # resolution 20 over the same window
    checked = 0
    for i, x in enumerate(half.xs):
        j = np.argmin(np.abs(fine.xs - x))
        if abs(fine.xs[j] - x) > 1e-12:
            continue
        for k, y in enumerate(half.ys):
            m = np.argmin(np.abs(fine.ys - y))
            if abs(fine.ys[m] - y) > 1e-12:
                continue
            a, b = half.values[i, k], fine.values[j, m]
            if np.isfinite(a) and np.isfinite(b):
                assert abs(a - b) < 5e-4
                checked += 1
    assert checked > 100


def test_contour_level_validation(strip_field):
    with pytest.raises(InvalidInputError):
        ball_contour(strip_field, 50.0)


def test_contour_truncation_error():
    fld = distance_field(ST, [0.0, 0.0], ((-0.6, 0.6), (-0.8, 0.8)), 16)
    with pytest.raises(TruncatedContourError):
        ball_contour(fld, 1.0)  # the r=1 ball pokes out of this window


def test_smoothness_profile_halfplane_oracle():
    rep = smoothness_profile(HP, [0.0, 1.0], 1.0, probes=8, k_eval=hp_oracle([0.0, 1.0]))
    pp = rep.per_probe()
    assert (np.diff(pp, axis=1) < 0).all()
    assert (pp[:, -1] / pp[:, 0] < 0.1).all()
    # degenerate single-h schedule: one ratio per probe and direction
    rep1 = smoothness_profile(HP, [0.0, 1.0], 1.0, probes=4, h_schedule=(0.1,),
                              k_eval=hp_oracle([0.0, 1.0]))
    assert rep1.ratios.shape == (4, 4, 1)


def test_smoothness_power_type_trend():
    rep = smoothness_profile(HP, [0.0, 1.0], 1.0, probes=6, k_eval=hp_oracle([0.0, 1.0]))
    pr = rep.power_ratios(1.4).max(axis=1)
    assert (pr[:, -1] < pr[:, 0]).all()


def test_probe_rejection():
    with pytest.raises(ProbeRejectedError):
        smoothness_profile(HP, [0.0, 1.0], 1.0,
                           probes=np.array([[0.0, 1e-4]]), k_eval=hp_oracle([0.0, 1.0]))


def test_directional_radii_halfplane():
    th = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    rad = directional_radii(HP, [0.0, 1.0], U, 1.0)
    pts = np.array([0.0, 1.0]) + rad[:, None] * U
    cc = np.array([0.0, np.cosh(1.0)])
    assert np.abs(np.sqrt(((pts - cc) ** 2).sum(axis=1)) - np.sinh(1.0)).max() < 1e-3


def reference_ray_limit(domain, origin, u, cap=1e6):
    """The one-ray loop that ``_boundary_ray_limits`` runs in lockstep."""
    s = 1.0
    last_in = 0.0
    for _ in range(80):
        if domain.contains(origin + s * u):
            last_in = s
            s *= 2.0
            if s > cap:
                return cap
        else:
            break
    lo, hi = last_in, s
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain.contains(origin + mid * u):
            lo = mid
        else:
            hi = mid
    return lo


def _reenters(case, origin, u, limit):
    """The ray left the domain before its limit and came back: it crossed
    one of omega-3's slits (x = sqrt(3)/2, 1/2 <= |y| <= 1) on the way, or
    polygon-P is inside again somewhere past the limit."""
    if case == "omega-3":
        t = (np.sqrt(3.0) / 2.0 - origin[0]) / u[0] if u[0] else -1.0
        return 0.0 < t < limit and 0.5 <= abs(origin[1] + t * u[1]) <= 1.0
    beyond = origin + np.linspace(limit + 1e-6, limit + 8.0, 400)[:, None] * u
    return bool(RAY_CASES[case][0].contains_many(beyond).any())


RAY_CASES = {
    "unit-ball": (unit_ball(), (0.1, -0.2), 1e6),
    "box": (symmetric_box(), (0.3, 0.1), 1e6),
    "strip": (strip(), (0.5, 0.1), 1e6),
    "strip-cap3": (strip(), (0.5, 0.1), 3.0),
    "half-plane": (half_plane(), (0.0, 1.0), 1e6),
    "polygon-P": (prolongation_polygon(), (-3.2, 0.5), 1e6),
    "omega-3": (build_omega_n(3), (0.4, 0.3), 1e6),
}


@pytest.mark.parametrize("K", [1, 7, 64])
@pytest.mark.parametrize("case", sorted(RAY_CASES))
def test_ray_limits_match_reference_loop(case, K):
    domain, origin, cap = RAY_CASES[case]
    origin = np.array(origin)
    th = np.linspace(0.0, 2.0 * np.pi, K, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    got = _boundary_ray_limits(domain, origin, U, cap=cap)
    ref = np.array([reference_ray_limit(domain, origin, u, cap=cap) for u in U])
    assert np.array_equal(got, ref)
    if case in ("strip", "half-plane"):
        # the first ray runs along the boundary and never leaves
        assert got[0] == cap
    if case == "strip-cap3" and K == 64:
        assert (got == 3.0).any() and (got < 3.0).any()
    if case in ("polygon-P", "omega-3") and K == 64:
        assert sum(_reenters(case, origin, u, L) for u, L in zip(U, got)) >= 5


@pytest.mark.parametrize("domain, level", [(unit_ball(), 1.0), (symmetric_box(), 1.5)],
                         ids=["unit-ball", "box"])
def test_directional_radii_keep_bits_in_any_batch(domain, level):
    # no arithmetic mixes directions, so a direction solved alone matches
    # the same direction inside a larger call to the bit
    th = 0.1 + np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    rho = directional_radii(domain, np.zeros(2), U, level)
    for j in (0, 13):
        assert directional_radii(domain, np.zeros(2), U[j:j + 1], level)[0] == rho[j]


def test_radii_refuse_a_nonconvex_domain():
    # the ray limits that bracket a radius cannot see omega-3's slits or
    # removed points: 8 of 64 rays from (0.4, 0.3) report the wall behind a slit
    omega3 = build_omega_n(3)
    with pytest.raises(InvalidInputError):
        directional_radii(omega3, np.array([0.4, 0.3]), np.array([[1.0, 0.0]]), 1.0)
    with pytest.raises(InvalidInputError):
        hausdorff_convergence(omega3, [1.0], directions=8)


def test_smoothness_profile_refuses_3d():
    with pytest.raises(InvalidInputError):
        smoothness_profile(strip(3), [0.0, 0.0, 0.0], 1.0)


def test_convexity_check_passes_on_strip(strip_field):
    viol = convexity_check(strip_field, 1.0, samples=300, domain=ST)
    assert viol == []


def test_convexity_check_rejects_nonconvex_domain(strip_field):
    with pytest.raises(InvalidInputError):
        convexity_check(strip_field, 1.0, samples=10, domain=punctured_space())


def test_orthogonality_halfplane():
    fld = distance_field(HP, [0.0, 1.0], ((-1.3, 1.3), (0.3, 2.85)), 22)
    ct = ball_contour(fld, 1.0)
    x0 = np.array([0.0, 1.0])
    res = qh_distance(HP, x0, np.array([0.0, np.e]))
    ratios = orthogonality_ratio(HP, np.array([0.0, np.e]), [0.5, 0.65, 0.8], ct,
                                 geodesic=res.path)
    assert np.abs(ratios[-2:] - 1.0).max() < 0.05


def test_orthogonality_resolution_certificate(strip_contour):
    x0 = np.array([0.0, 0.0])
    x = np.array([1.0, 0.0])
    res = qh_distance(ST, x0, x)
    with pytest.raises(ResolutionError):
        orthogonality_ratio(ST, x, [0.99], strip_contour, geodesic=res.path)


def test_cusp_strip_example_radius():
    # x = 0, r = 1, y = (1,0), z = (0.5,0): u = 0.5, ball radius 1/3
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    res = qh_distance(ST, x, y)
    rep = cusp_free_check(ST, x, 1.0, y, z_schedule=(0.5,), samples=24,
                          geodesic=res.path)
    assert rep[0]["radius"] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert rep[0]["violations"] == 0


def test_cusp_degenerate_z_at_y():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    res = qh_distance(ST, x, y)
    rep = cusp_free_check(ST, x, 1.0, y, z_schedule=(1.0,), samples=8,
                          geodesic=res.path)
    assert rep[0]["radius"] == pytest.approx(0.0, abs=1e-6)
    assert rep[0]["violations"] == 0
