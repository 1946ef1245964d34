import numpy as np
import pytest

from qhtk.cases import (
    build_omega_n,
    count_polyline_intersections,
    l2_halfcircle_length,
    l2_nongeodesic_lengths,
    polygon_prolongation_check,
    sign_pattern_seed,
    verify_intersection_count,
)
from qhtk.geometry import InvalidInputError, Polyline

SQRT3 = np.sqrt(3.0)

# frozen by high-accuracy quadrature on first certified run
L2_BASELINES = {2: 3.646275797959263, 3: 3.485096065143}


def test_build_omega_geometry():
    om = build_omega_n(3)
    assert om.contains([-0.5, 0.0])
    assert not om.contains([SQRT3, 0.0])
    assert not om.contains([SQRT3 / 2, 0.75])   # on the upper slit
    assert om.contains([SQRT3 / 2, 0.0])        # through the gap
    assert om.boundary_distance([SQRT3 / 2, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_build_omega_n2_is_punctured_plane():
    om = build_omega_n(2)
    assert not om.contains([0.0, 0.0])
    assert om.contains([5.0, 5.0])


def test_build_omega_rejects_small_n():
    with pytest.raises(InvalidInputError):
        build_omega_n(1)


def test_sign_seed_inside():
    om = build_omega_n(4)
    for signs in ((1, 1, 1), (1, -1, 1)):
        seed = sign_pattern_seed(4, signs)
        assert om.contains_many(seed.vertices).all()


def test_intersection_counter_transversal():
    a = Polyline(np.array([[0.0, -1.0], [2.0, 1.0]]))
    b = Polyline(np.array([[0.0, 1.0], [2.0, -1.0]]))
    count, reps = count_polyline_intersections(a, b)
    assert count == 1
    assert np.allclose(reps[0], [1.0, 0.0], atol=1e-3)


def test_intersection_counter_tangential_cluster():
    # two parabolic arcs kissing at the origin: one clustered contact
    t = np.linspace(-1, 1, 400)
    a = Polyline(np.stack([t, 0.5 * t**2], axis=1))
    b = Polyline(np.stack([t, -0.5 * t**2], axis=1))
    count, reps = count_polyline_intersections(a, b)
    assert count == 1
    assert abs(reps[0][0]) < 1e-2


def test_intersections_n3():
    v = verify_intersection_count(3)
    assert v.passed
    assert v.measured["count"] == 3
    expect = [-0.5, SQRT3 / 2, SQRT3 + 0.5]
    assert np.allclose(v.measured["abscissae"], expect, atol=2e-3)


def test_intersections_n4_reference_lengths():
    v = verify_intersection_count(4)
    assert v.measured["count"] == 4
    assert v.measured["lengths"] == pytest.approx([11.526002515652829] * 2, rel=1e-12)


def test_intersections_n2_punctured():
    v = verify_intersection_count(2)
    assert v.passed
    assert v.measured["count"] == 2


def test_prolongation_interior_point_distance():
    from qhtk.geometry import prolongation_polygon

    dom = prolongation_polygon()
    t = 0.5
    assert dom.boundary_distance([-1 - t / 2, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_prolongation_t1():
    v = polygon_prolongation_check(1.0)
    assert v.passed
    assert v.measured["k"] == pytest.approx(1.0, abs=1e-4)
    # the two corner geodesics agree with the corridor-plus-quarter-arc value
    for k in v.measured["k_to_corners"]:
        assert k == pytest.approx(1.0 + np.pi / 2, abs=2e-4)


def test_l2_lengths_frozen_baselines():
    for n, expect in L2_BASELINES.items():
        assert l2_halfcircle_length(n) == pytest.approx(expect, abs=1e-8)


def test_l2_lengths_verdict():
    v = l2_nongeodesic_lengths(8)
    assert v.passed
    gaps = np.array(v.measured["gaps"])
    assert (np.diff(gaps) < 0).all()
    assert (gaps > 0).all()


def test_l2_section_dependence():
    # the printed diagonal section gives the smaller length than span{e1, e_n}
    for n in (2, 3, 5):
        diag = l2_halfcircle_length(n, diagonal=True)
        flat = l2_halfcircle_length(n, diagonal=False)
        assert diag < flat


def test_verdict_determinism():
    a = polygon_prolongation_check(0.25)
    b = polygon_prolongation_check(0.25)
    assert a.measured == b.measured
    assert a.passed and b.passed
