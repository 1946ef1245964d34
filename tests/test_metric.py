import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhtk.cases import l2_halfcircle_length
from qhtk.geometry import DomainViolationError, Polyline, half_plane, punctured_space, strip
from qhtk.metric import (
    QUAD_ABS_TOL,
    EvaluationError,
    adaptive_simpson,
    halfplane_distance_oracle,
    punctured_distance_oracle,
    qh_lower_bound,
    qh_path_length,
)


def _segment(a, b, n=2):
    t = np.linspace(0, 1, n)[:, None]
    return Polyline(np.asarray(a)[None, :] * (1 - t) + np.asarray(b)[None, :] * t)


def test_halfplane_vertical_segment():
    # integral of dt/t from 1 to e
    L = qh_path_length(half_plane(), _segment(np.array([0.0, 1.0]), np.array([0.0, np.e])))
    assert L == pytest.approx(1.0, abs=1e-8)


def test_punctured_radial_segment():
    L = qh_path_length(punctured_space(), _segment(np.array([1.0, 0.0]), np.array([2.0, 0.0])))
    assert L == pytest.approx(np.log(2.0), abs=1e-8)


def test_punctured_halfcircle_is_pi():
    th = np.linspace(np.pi, 0.0, 721)
    arc = Polyline(np.stack([np.cos(th), np.sin(th)], axis=1))
    L = qh_path_length(punctured_space(), arc)
    # inscribed polygon of the half circle: pi + pi^3 / (24 n^2)
    n = 720
    assert L == pytest.approx(np.pi + np.pi**3 / (24 * n**2), abs=1e-7)


def test_additivity_over_concatenation():
    dom = half_plane()
    a, m, b = np.array([0.0, 1.0]), np.array([0.4, 1.3]), np.array([1.0, 2.0])
    whole = qh_path_length(dom, Polyline(np.stack([a, m, b])))
    parts = qh_path_length(dom, _segment(a, m)) + qh_path_length(dom, _segment(m, b))
    assert abs(whole - parts) <= 2 * QUAD_ABS_TOL + 1e-12


def test_path_exiting_domain_raises():
    with pytest.raises(EvaluationError):
        qh_path_length(punctured_space(), _segment(np.array([-1.0, 0.0]), np.array([1.0, 0.0])))


def test_reversal_symmetry_of_length():
    dom = strip()
    rng = np.random.default_rng(0)
    for _ in range(25):
        V = rng.uniform([-1.5, -0.8], [1.5, 0.8], size=(5, 2))
        try:
            p = Polyline(V)
        except Exception:
            continue
        if not dom.contains_many(V).all():
            continue
        try:
            a = qh_path_length(dom, p)
            b = qh_path_length(dom, p.reversed())
        except EvaluationError:
            continue
        assert abs(a - b) <= 2 * QUAD_ABS_TOL


# --- lower bound ---------------------------------------------------------------

def test_lower_bound_halfplane_tight():
    b = qh_lower_bound(half_plane(), [0.0, 1.0], [0.0, np.e])
    assert b == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_punctured():
    b = qh_lower_bound(punctured_space(), [-1.0, 0.0], [1.0, 0.0])
    assert b == pytest.approx(np.log(3.0), abs=1e-12)
    assert b <= np.pi


def test_lower_bound_identity():
    assert qh_lower_bound(strip(), [0.2, 0.1], [0.2, 0.1]) == 0.0


def test_lower_bound_outside_raises():
    with pytest.raises(DomainViolationError):
        qh_lower_bound(half_plane(), [0.0, -1.0], [0.0, 1.0])


# --- closed-form oracles --------------------------------------------------------

def test_halfplane_oracle_values():
    assert halfplane_distance_oracle([0.0, 1.0], [0.0, np.e]) == pytest.approx(1.0, abs=1e-12)
    assert halfplane_distance_oracle([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert halfplane_distance_oracle([-1.0, 1.0], [1.0, 1.0]) == pytest.approx(
        np.arccosh(3.0), abs=1e-12
    )


def test_halfplane_oracle_rejects_exterior():
    with pytest.raises(DomainViolationError):
        halfplane_distance_oracle([0.0, 0.0], [0.0, 1.0])


def test_punctured_oracle_values():
    assert punctured_distance_oracle([-1.0, 0.0], [1.0, 0.0]) == pytest.approx(np.pi, abs=1e-12)
    assert punctured_distance_oracle([1.0, 0.0], [2.0, 0.0]) == pytest.approx(
        np.log(2.0), abs=1e-12
    )
    expect = np.hypot(np.pi / 2, np.log(2.0))
    assert punctured_distance_oracle([1.0, 0.0], [0.0, 2.0]) == pytest.approx(expect, abs=1e-12)


def test_punctured_oracle_rejects_origin():
    with pytest.raises(DomainViolationError):
        punctured_distance_oracle([0.0, 0.0], [1.0, 0.0])


# --- the scalar adaptive engine --------------------------------------------------

def test_adaptive_simpson_log():
    val = adaptive_simpson(lambda sid, t: 1.0 / t, [1.0], [np.e], 1e-12, 1e-12, 40)
    assert val == pytest.approx(1.0, abs=1e-10)
    # several intervals integrate in one pass and add up
    val = adaptive_simpson(lambda sid, t: 1.0 / t, [1.0, 2.0], [2.0, np.e], 1e-12, 1e-12, 40)
    assert val == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.1, 2.0), b=st.floats(2.5, 6.0), c=st.floats(-2, 2))
def test_adaptive_simpson_poly(a, b, c):
    val = adaptive_simpson(lambda sid, t: 3 * t**2 + c, [a], [b], 1e-11, 1e-11, 40)
    assert val == pytest.approx((b**3 + c * b) - (a**3 + c * a), rel=1e-8, abs=1e-8)


def test_adaptive_simpson_keeps_reference_lengths():
    # values of the separate polyline and single-interval integrators that
    # the shared one replaced; the refinement order is the same, so are the bits
    th = np.linspace(0.2, 2.5, 30)
    arc = Polyline(np.stack([np.cos(th), 1.5 + np.sin(th)], axis=1))
    assert qh_path_length(half_plane(), arc) == 1.0214299332302064
    th = np.linspace(0.0, np.pi, 40)
    circle = Polyline(np.stack([np.cos(th), np.sin(th)], axis=1))
    assert qh_path_length(punctured_space(), circle) == 3.14244239207697
    expect = [3.646275797959263, 3.4850960651430927, 3.3760800951568735,
              3.3119745857473313, 3.2719001907878904]
    assert [l2_halfcircle_length(n) for n in range(2, 7)] == expect
