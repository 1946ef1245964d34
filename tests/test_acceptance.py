"""Acceptance criteria, one test per criterion, each printing a verdict line.

Shared distance fields are session fixtures; random draws are seeded; every
tolerance is pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from qhtk.ball import (
    ball_contour,
    contour_tangent_gaps,
    cusp_free_check,
    directional_radii,
    distance_field,
    orthogonality_ratio,
    smoothness_profile,
)
from qhtk.batch import solve_batch
from qhtk.cases import (
    enumerate_sign_geodesics,
    l2_nongeodesic_lengths,
    polygon_prolongation_check,
    verify_intersection_count,
)
from qhtk.cli import EXIT_PASS, dispatch
from qhtk.geometry import half_plane, punctured_space, strip, symmetric_box, unit_ball
from qhtk.metric import halfplane_distance_oracle, qh_lower_bound
from qhtk.renorm import InducedNorm, hausdorff_convergence, triangle_check
from qhtk.solver import (
    LOWER_BOUND_LOG,
    RefinementConfig,
    SolverConfig,
    qh_distance,
)

HP = half_plane()
PP = punctured_space()
ST = strip()
UB = unit_ball()
BX = symmetric_box()

STRIP_WINDOW = ((-1.28, 1.28), (-0.76, 0.76))


def _verdict(num, passed, detail):
    print(f"[ACCEPTANCE {num:>2}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def strip_field_fine():
    return distance_field(ST, [0.0, 0.0], STRIP_WINDOW, 40)


@pytest.fixture(scope="session")
def strip_field_coarse():
    return distance_field(ST, [0.0, 0.0], STRIP_WINDOW, 20)


def test_criterion_01_punctured_plane_pi():
    t0 = time.perf_counter()
    res = qh_distance(PP, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    dt = time.perf_counter() - t0
    rel = abs(res.qh_length - np.pi) / np.pi
    ok = rel < 1e-3 and dt < 10.0 and res.converged
    _verdict(1, ok, f"k(-e1,e1)={res.qh_length:.6f} rel_err={rel:.2e} time={dt:.2f}s")


def test_criterion_02_halfplane_oracle_agreement():
    rng = np.random.default_rng(20260808)
    n = 100
    A = np.stack([rng.uniform(-2, 2, n), rng.uniform(0.5, 2, n)], axis=1)
    B = np.stack([rng.uniform(-2, 2, n), rng.uniform(0.5, 2, n)], axis=1)
    t0 = time.perf_counter()
    s = SolverConfig(refinement=RefinementConfig(max_iterations=150, gradient_tol=1e-4))
    L, _, _ = solve_batch(HP, A, B, s, vertex_count=49, relax_sweeps=2)
    dt = time.perf_counter() - t0
    oracle = np.array([halfplane_distance_oracle(a, b) for a, b in zip(A, B)])
    rel = np.abs(L - oracle) / oracle
    ok = rel.max() < 1e-3 and dt < 60.0
    _verdict(2, ok, f"{n} pairs, max rel err={rel.max():.2e}, time={dt:.1f}s")


def test_criterion_03_polygon_prolongation():
    details = []
    ok = True
    for t in (0.25, 0.5, 1.0):
        v = polygon_prolongation_check(t)
        ok &= v.passed
        ok &= abs(v.measured["k"] - t) <= 1e-4
        ok &= max(v.measured["pass_through_y"]) < 1e-3
        ok &= v.measured["post_mouth_divergence"] > 0.5
        details.append(f"t={t}: k={v.measured['k']:.6f}")
    _verdict(3, ok, "; ".join(details))


def test_criterion_04_omega_multiplicity():
    details = []
    ok = True
    for n in (3, 4, 5):
        sg = enumerate_sign_geodesics(n)
        ic = verify_intersection_count(n)
        ok &= sg.passed and ic.passed
        ok &= sg.measured["count_distinct"] == 2 ** (n - 1)
        ok &= sg.measured["length_spread"] < 1e-3
        ok &= ic.measured["count"] == n
        details.append(
            f"n={n}: {sg.measured['count_distinct']} geodesics "
            f"spread={sg.measured['length_spread']:.1e} crossings={ic.measured['count']}"
        )
    _verdict(4, ok, "; ".join(details))


def test_criterion_05_strip_ball_smoothness(strip_field_fine, strip_field_coarse):
    rep = smoothness_profile(ST, [0.0, 0.0], 1.0, probes=8)
    pp = rep.per_probe()
    decreasing = bool((np.diff(pp, axis=1) < 0).all())
    final_over_initial = pp[:, -1] / pp[:, 0]
    ratio_ok = bool((final_over_initial < 0.1).all())

    # tangent-gap refinement: away from the axis tips the gap halves with
    # the grid; at the tips the metric is C^(1,1/2), so the gap contracts
    # by 1/sqrt(2) there; both decay to zero, which is what rules out a
    # corner (a corner's gap would not shrink at all)
    def split_gaps(field):
        g, p = contour_tangent_gaps(ball_contour(field, 1.0), return_positions=True)
        tip = np.minimum(
            np.sqrt(((p - [1.0, 0.0]) ** 2).sum(axis=1)),
            np.sqrt(((p - [-1.0, 0.0]) ** 2).sum(axis=1)),
        ) < 0.3
        return g[~tip].max(), g[tip].max()

    off_c, tip_c = split_gaps(strip_field_coarse)
    off_f, tip_f = split_gaps(strip_field_fine)
    halving = off_f / off_c
    tip_decay = tip_f / tip_c
    halving_ok = 0.5 * 0.8 <= halving <= 0.5 * 1.2
    tip_ok = tip_decay <= 0.8
    ok = decreasing and ratio_ok and halving_ok and tip_ok
    _verdict(5, ok, (
        f"ratios decreasing={decreasing}, max final/initial="
        f"{final_over_initial.max():.4f}, tangent-gap halving={halving:.3f}, "
        f"tip-gap decay={tip_decay:.3f}"
    ))


def test_criterion_06_orthogonality(strip_field_fine):
    results = []
    ok = True
    # strip: axis radius of the r=1 ball ends at (1, 0)
    # strip: an off-axis geodesic radius (at the axis tips the sphere is
    # only C^(1,1/2) and the ratio approaches 1 like sep^(3/2), which needs
    # much finer contours; the axis series is still reported)
    ct = ball_contour(strip_field_fine, 1.0)
    u = np.array([np.cos(0.35), np.sin(0.35)])
    rad = directional_radii(ST, np.zeros(2), u[None, :], 1.0)[0]
    x_off = rad * u
    res = qh_distance(ST, np.zeros(2), x_off)
    ratios = orthogonality_ratio(ST, x_off, [0.35, 0.5, 0.6, 0.66], ct, geodesic=res.path)
    ok &= bool((np.abs(ratios[-2:] - 1.0) <= 0.05).all())
    results.append(f"strip ratios={np.round(ratios, 3).tolist()}")
    res_ax = qh_distance(ST, np.zeros(2), np.array([1.0, 0.0]))
    ratios_ax = orthogonality_ratio(ST, [1.0, 0.0], [0.4, 0.55, 0.7, 0.75], ct,
                                    geodesic=res_ax.path)
    results.append(f"(axis series={np.round(ratios_ax, 3).tolist()})")
    # half-plane: vertical radius
    fld = distance_field(HP, [0.0, 1.0], ((-1.28, 1.28), (0.3, 2.9)), 25)
    ct2 = ball_contour(fld, 1.0)
    res2 = qh_distance(HP, np.array([0.0, 1.0]), np.array([0.0, np.e]))
    ratios2 = orthogonality_ratio(HP, [0.0, np.e], [0.4, 0.6, 0.75, 0.8], ct2,
                                  geodesic=res2.path)
    ok &= bool((np.abs(ratios2[-2:] - 1.0) <= 0.05).all())
    results.append(f"half-plane ratios={np.round(ratios2, 3).tolist()}")
    _verdict(6, ok, "; ".join(results))


def test_criterion_07_cusp_freeness():
    rng = np.random.default_rng(77)
    domains = [(ST, [-1.2, -0.6], [1.2, 0.6]),
               (HP, [-1.2, 0.5], [1.2, 1.8]),
               (UB, [-0.45, -0.45], [0.45, 0.45])]
    total_viol = 0
    total_samples = 0
    for case in range(20):
        dom, lo, hi = domains[case % 3]
        x = rng.uniform(lo, hi)
        th = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(th), np.sin(th)])
        r = rng.uniform(0.6, 1.4)
        rad = directional_radii(dom, x, u[None, :], r)[0]
        y = x + rad * u
        zfrac = float(rng.choice([0.3, 0.5, 0.7]))
        rep = cusp_free_check(dom, x, r, y, z_schedule=(zfrac,), samples=40,
                              rng_seed=case, tol=1e-3)
        total_viol += sum(e["violations"] for e in rep)
        total_samples += sum(e["samples"] for e in rep)
    ok = total_viol == 0
    _verdict(7, ok, f"20 cases, {total_samples} samples, {total_viol} violations")


def test_criterion_08_lower_bound_ledger():
    # fresh sweep with the path-point bound, then the suite-wide log
    rng = np.random.default_rng(5)
    worst = np.inf
    for dom, lo, hi in ((ST, [-1.5, -0.7], [1.5, 0.7]),
                        (HP, [-1.5, 0.4], [1.5, 2.0]),
                        (UB, [-0.6, -0.6], [0.6, 0.6]),
                        (PP, [-1.5, -1.5], [1.5, 1.5])):
        n = 0
        while n < 8:
            a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
            if not (dom.contains(a) and dom.contains(b)):
                continue
            res = qh_distance(dom, a, b)
            worst = min(worst, res.lower_bound_gap)
            assert res.qh_length >= qh_lower_bound(dom, a, b) - 1e-6
            n += 1
    logged = np.array([entry[3] for entry in LOWER_BOUND_LOG])
    ok = worst >= -1e-6 and logged.size > 0 and logged.min() >= -1e-6
    _verdict(8, ok, (
        f"sweep worst gap={worst:.2e}; ledger n={logged.size} "
        f"min gap={logged.min():.2e}"
    ))


def test_criterion_09_renorming():
    # unit-ball induced norm against the radial closed form
    nm = InducedNorm(UB, 1.0, precheck_pairs=60, table=128)
    th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    X = np.stack([np.cos(th), np.sin(th)], axis=1) * 0.45
    M = nm.eval_many(X)
    exact = 0.45 / (1 - np.exp(-1.0))
    m_err = np.abs(M - exact).max()
    ok = m_err < 1e-4
    # box Hausdorff series strictly decreasing
    series = hausdorff_convergence(BX, [1.0, 2.0, 3.0, 4.0], directions=96)
    ok &= bool((np.diff(series) < 0).all())
    # triangle inequality on the box norm
    bn = InducedNorm(BX, 2.0, precheck_pairs=60)
    viol = triangle_check(bn, samples=1000, rng_seed=3)
    ok &= len(viol) == 0
    _verdict(9, ok, (
        f"unit-ball M err={m_err:.2e}; d_H={np.round(series, 4).tolist()}; "
        f"triangle violations={len(viol)}/1000"
    ))


def test_criterion_10_l2_lengths():
    v = l2_nongeodesic_lengths(12)
    gaps = np.array(v.measured["gaps"])
    ns = v.measured["n"]
    g3 = gaps[ns.index(3)]
    g12 = gaps[ns.index(12)]
    ok = v.passed and bool((np.diff(gaps) < 0).all()) and (gaps > 0).all()
    ok &= g12 < g3 / 3.0
    # frozen regression baselines from the first certified run
    ok &= abs(v.measured["lengths"][0] - 3.646275797959263) < 1e-8
    ok &= abs(v.measured["lengths"][1] - 3.485096065143) < 1e-8
    _verdict(10, ok, (
        f"n=2..12 strictly decreasing above pi; gap3/gap12={g3 / g12:.2f}"
    ))


def test_criterion_11_ball_convexity():
    rng = np.random.default_rng(9)
    s = SolverConfig(refinement=RefinementConfig(max_iterations=60, gradient_tol=2e-4))
    details = []
    ok = True
    for dom, center, r in ((ST, [0.0, 0.0], 1.0), (HP, [0.0, 1.0], 1.0),
                           (UB, [0.0, 0.0], 1.0), (BX, [0.0, 0.0], 1.0)):
        center = np.array(center)
        th = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        U = np.stack([np.cos(th), np.sin(th)], axis=1)
        rho = directional_radii(dom, center, U, r)
        # pairs drawn star-shaped inside the ball (radii are exact up to
        # solver tolerance; the 0.99 margin absorbs it)
        iu = rng.integers(0, 48, (1000, 2))
        tt = 0.99 * np.sqrt(rng.uniform(0, 1, (1000, 2)))
        a = center + (tt[:, 0] * rho[iu[:, 0]])[:, None] * U[iu[:, 0]]
        b = center + (tt[:, 1] * rho[iu[:, 1]])[:, None] * U[iu[:, 1]]
        mid = 0.5 * (a + b)
        ctr = np.broadcast_to(center, mid.shape)
        kv, _, _ = solve_batch(dom, ctr, mid, s, vertex_count=25, relax_sweeps=1)
        viol = int((kv > r + 1e-3).sum())
        ok &= viol == 0
        details.append(f"{dom.name or 'domain'}:{viol}")
    _verdict(11, ok, "midpoint violations per domain: " + ", ".join(details))


def test_criterion_12_determinism(tmp_path):
    commands = [
        ["dist", "--domain", "strip", "--from", "-1,0.2", "--to", "1,-0.3"],
        ["geodesic", "--domain", "half-plane", "--from", "-1,1", "--to", "1,1", "--svg"],
        ["ball", "--domain", "strip", "--center", "0,0", "--r", "0.8",
         "--window", "-1.1,1.1,-0.7,0.7", "--field-resolution", "14"],
        ["example", "l2-lengths", "--nmax", "5"],
    ]
    digests = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        blobs = {}
        for cmd in commands:
            rc = dispatch(cmd + ["--out", str(outdir)])
            assert rc == EXIT_PASS
        for f in sorted(outdir.iterdir()):
            if f.name.endswith("-manifest.json"):
                continue  # manifests carry wall time
            blobs[f.name] = f.read_bytes()
        digests.append(blobs)
    same = set(digests[0]) == set(digests[1]) and all(
        digests[0][k] == digests[1][k] for k in digests[0]
    )
    _verdict(12, same, f"{len(digests[0])} output files byte-identical across reruns")
