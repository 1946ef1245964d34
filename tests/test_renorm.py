from types import SimpleNamespace

import numpy as np
import pytest

from qhtk.ball import directional_radii
from qhtk.geometry import InvalidInputError, punctured_space, symmetric_box, unit_ball
from qhtk.renorm import (
    ConfigurationError,
    InducedNorm,
    PeriodicCubicSpline,
    hausdorff_convergence,
    modulus_estimate,
    triangle_check,
)


@pytest.fixture(scope="module")
def ball_norm():
    return InducedNorm(unit_ball(), 1.0, precheck_pairs=40)


@pytest.fixture(scope="module")
def box_norm():
    return InducedNorm(symmetric_box(), 2.0, precheck_pairs=40)


def test_unit_ball_norm_formula(ball_norm):
    # radial symmetry: M(x) = |x| / (1 - e^{-r})
    rng = np.random.default_rng(1)
    X = rng.normal(size=(24, 2))
    M = ball_norm.eval_many(X)
    exact = np.sqrt((X**2).sum(axis=1)) / (1 - np.exp(-1.0))
    assert np.abs(M - exact).max() < 1e-4


def test_minkowski_zero(ball_norm):
    assert ball_norm.eval(np.zeros(2)) == 0.0


def test_homogeneity(ball_norm):
    rng = np.random.default_rng(2)
    for _ in range(6):
        x = rng.normal(size=2)
        assert ball_norm.eval(2.0 * x) == pytest.approx(2.0 * ball_norm.eval(x), rel=1e-9)


def test_symmetry_box(box_norm):
    rng = np.random.default_rng(3)
    for _ in range(6):
        x = rng.normal(size=2)
        assert box_norm.eval(-x) == pytest.approx(box_norm.eval(x), rel=1e-4)


def test_colinear_triangle_equality(box_norm):
    x = np.array([0.31, -0.2])
    assert box_norm.eval(3 * x) == pytest.approx(3 * box_norm.eval(x), rel=1e-9)


def test_triangle_check_box(box_norm):
    viol = triangle_check(box_norm, samples=200, rng_seed=0)
    assert viol == []


def test_norm_equivalence_constants(box_norm):
    # c |x| <= M(x) <= C |x| with stable constants under sample doubling
    rng = np.random.default_rng(4)

    def constants(n):
        th = rng.uniform(0, 2 * np.pi, n)
        U = np.stack([np.cos(th), np.sin(th)], axis=1)
        M = box_norm.eval_many(U)
        return M.min(), M.max()

    c1, C1 = constants(40)
    c2, C2 = constants(80)
    assert 0 < c1 <= C1 < np.inf
    assert abs(c2 - c1) < 0.2 * c1
    assert abs(C2 - C1) < 0.2 * C1


def test_unbounded_domain_rejected():
    from qhtk.geometry import half_plane

    with pytest.raises(ConfigurationError):
        InducedNorm(half_plane(), 1.0)


def test_nonconvex_domain_rejected():
    with pytest.raises(ConfigurationError):
        InducedNorm(punctured_space(), 1.0)


def test_hausdorff_unit_ball_gap():
    # directional radius is 1 - e^{-r} in every direction: gap = e^{-r}
    radii = [1.0, 2.0]
    series = hausdorff_convergence(unit_ball(), radii, directions=48)
    for r, d in zip(radii, series):
        assert d == pytest.approx(np.exp(-r), abs=3e-3)


def test_modulus_convexity_euclid(ball_norm):
    # induced norm is a scaled Euclidean norm: delta(tau) = 1 - sqrt(1 - tau^2/4)
    taus = np.array([0.5, 1.0])
    est = modulus_estimate(ball_norm, "convexity", taus, sample_budget=300, rng_seed=0)
    exact = 1 - np.sqrt(1 - taus**2 / 4)
    # sampling bias is one-sided and shrinks with pair density; the tau = 1
    # value lands within 1e-3
    assert abs(est.values[1] - exact[1]) < 1e-3
    assert np.abs(est.values - exact).max() < 3e-3
    assert (np.diff(est.values) >= -1e-12).all()  # non-decreasing
    # one-sided: sampled inf over a subset sits at or above the true modulus
    assert (est.values >= exact - 5e-5).all()


def test_modulus_smoothness_trend(ball_norm):
    taus = np.array([0.4, 0.2, 0.1, 0.05])
    est = modulus_estimate(ball_norm, "smoothness", taus, sample_budget=200, rng_seed=1)
    ratio = est.values / taus
    # mu(tau)/tau decreases toward 0 for a smooth norm
    assert ratio[-1] < ratio[0]


def test_modulus_rejects_empty_budget(ball_norm):
    with pytest.raises(Exception):
        modulus_estimate(ball_norm, "convexity", [0.5], sample_budget=0)


def test_modulus_refuses_3d():
    # the domain is all the estimate reads before sampling, so no solve runs
    stub = SimpleNamespace(domain=symmetric_box(3))
    with pytest.raises(InvalidInputError):
        modulus_estimate(stub, "convexity", [0.5])


def test_table_interpolation_matches_direct_bisection(box_norm):
    # the dense radius table must agree with held-out exact bisections
    rng = np.random.default_rng(12)
    X = rng.normal(size=(10, 2))
    fast = box_norm.eval_many(X)
    exact = box_norm.eval_many(X, exact=True)
    assert np.abs(fast - exact).max() < 1.5 * box_norm.eval_tol


def reference_norm_tables(domain, r, table, rng_seed=0):
    """Cache and spline of an induced norm built with three separate
    ``directional_radii`` calls: radii(U), radii(-U) and the table knots."""
    def solve(U):
        return directional_radii(domain, np.zeros(2), U, r, vertex_count=25)

    def unit(U):
        return U / np.sqrt((U * U).sum(axis=1, keepdims=True))

    cache = {}
    rng = np.random.default_rng(rng_seed)
    th = rng.uniform(0, 2 * np.pi, 8)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    for D in (unit(U), unit(-U)):
        keys = [tuple(np.round(u, 12)) for u in D]
        missing = [i for i, k in enumerate(keys) if k not in cache]
        for i, v in zip(missing, solve(D[missing])):
            cache[keys[i]] = float(v)
    th = np.linspace(0.0, 2.0 * np.pi, table, endpoint=False)
    rho = solve(np.stack([np.cos(th), np.sin(th)], axis=1))
    spline = PeriodicCubicSpline(np.concatenate([th, [2.0 * np.pi]]),
                                 np.concatenate([rho, [rho[0]]]))
    return cache, spline


@pytest.mark.parametrize("domain", [symmetric_box(), unit_ball()], ids=["box", "unit-ball"])
def test_one_radii_call_keeps_the_bits_of_three(domain):
    norm = InducedNorm(domain, 1.0, precheck_pairs=10, table=16)
    cache, spline = reference_norm_tables(domain, 1.0, 16)
    assert norm._cache == cache
    assert len(cache) == 16
    assert np.array_equal(norm._spline.x, spline.x)
    assert np.array_equal(norm._spline.c, spline.c)


@pytest.mark.parametrize("table", [8, 16, 256])
@pytest.mark.parametrize("shape", ["smooth", "box"])
def test_periodic_spline_matches_scipy(table, shape):
    from scipy.interpolate import CubicSpline

    th = np.linspace(0.0, 2.0 * np.pi, table, endpoint=False)
    if shape == "smooth":
        rho = 1.0 + 0.3 * np.cos(2.0 * th) + 0.1 * np.sin(3.0 * th)
    else:  # the radius of a square, kinked at the diagonals
        rho = 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    x, y = np.append(th, 2.0 * np.pi), np.append(rho, rho[0])
    ours, ref = PeriodicCubicSpline(x, y), CubicSpline(x, y, bc_type="periodic")
    assert np.array_equal(ours.x, ref.x)
    scale = np.abs(ref.c).max(axis=1, keepdims=True)
    assert (np.abs(ours.c - ref.c) <= 1e-14 * scale).all()
    # angles beyond one period exercise the wrap
    t = np.random.default_rng(table).uniform(-4.0 * np.pi, 6.0 * np.pi, 10_000)
    assert (np.abs(ours(t) - ref(t)) <= 1e-14 * np.abs(ref(t))).all()
    assert np.array_equal(ours(th), rho)
    assert ours(2.0 * np.pi) == rho[0]


def test_periodic_spline_needs_three_knots():
    with pytest.raises(InvalidInputError):
        PeriodicCubicSpline([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
    with pytest.raises(InvalidInputError):
        InducedNorm(symmetric_box(), 1.0, table=2)
