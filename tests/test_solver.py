import numpy as np
import pytest

from qhtk.batch import solve_batch
from qhtk.cases import OMEGA_SOLVER, SQRT3, build_omega_n, omega_endpoints, sign_pattern_seed
from qhtk.geometry import (
    DomainSpec,
    DomainViolationError,
    InvalidInputError,
    NormSpec,
    Polyline,
    QHError,
    certify_segment,
    half_plane,
    prolongation_polygon,
    punctured_space,
    starlike3d,
    strip,
    symmetric_box,
    unit_ball,
)
from qhtk.metric import (
    QUAD_ABS_TOL,
    halfplane_distance_oracle,
    punctured_distance_oracle,
    qh_lower_bound,
    qh_path_length,
)
from qhtk.solver import (
    GeodesicResult,
    NoPathError,
    RefinementConfig,
    SolverConfig,
    _MOVE_BLOCK,
    _NODES,
    _SCREEN_NODES,
    _WEIGHTS,
    _batch_objective,
    _batch_relax,
    _batch_screen,
    _certified_start,
    _move_costs,
    _segment_values,
    geodesic_multiplicity,
    grid_init,
    qh_distance,
    refine_path,
    refine_paths,
)
from qhtk.io import resolve_domain

HP = half_plane()
PP = punctured_space()
ST = strip()


def test_halfplane_vertical_chord_already_optimal():
    res = qh_distance(HP, np.array([0.0, 1.0]), np.array([0.0, np.e]))
    assert res.converged
    assert res.qh_length == pytest.approx(1.0, abs=1e-6)


def test_punctured_pi():
    res = qh_distance(PP, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert res.converged
    assert res.qh_length == pytest.approx(np.pi, rel=1e-3)
    # geodesic is one of the half circles
    mean_y = res.path.vertices[:, 1].mean()
    assert abs(mean_y) > 0.3


def test_strip_axis_chord():
    r = 3.0
    res = qh_distance(ST, np.array([0.0, 0.0]), np.array([r, 0.0]))
    assert res.qh_length == pytest.approx(r, abs=1e-6)


def test_unit_ball_radial():
    s = 0.8
    res = qh_distance(unit_ball(), np.zeros(2), np.array([s, 0.0]))
    assert res.qh_length == pytest.approx(-np.log(1 - s), abs=1e-8)


def test_identity_degenerate():
    res = qh_distance(ST, np.array([0.1, 0.2]), np.array([0.1, 0.2]))
    assert res.qh_length == 0.0
    assert res.path is None
    assert res.converged


def test_refinement_history_non_increasing():
    res = qh_distance(PP, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    hist = np.array(res.refinement_history)
    assert len(hist) > 3
    assert (np.diff(hist) <= 0).all()


def test_solver_vs_halfplane_oracle():
    res = qh_distance(HP, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    assert res.qh_length == pytest.approx(np.arccosh(3.0), abs=1e-4)


def test_solver_vs_punctured_oracle_offaxis():
    res = qh_distance(PP, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert res.qh_length == pytest.approx(
        punctured_distance_oracle([1.0, 0.0], [0.0, 2.0]), abs=1e-4
    )


def test_symmetry_of_solves():
    a, b = np.array([-1.0, 0.5]), np.array([1.5, 1.7])
    r1 = qh_distance(HP, a, b)
    r2 = qh_distance(HP, b, a)
    assert abs(r1.qh_length - r2.qh_length) < 1e-6


def test_lower_bound_respected():
    rng = np.random.default_rng(3)
    for dom, lo, hi in ((ST, [-2, -0.9], [2, 0.9]), (HP, [-2, 0.2], [2, 2.5])):
        for _ in range(6):
            a = rng.uniform(lo, hi)
            b = rng.uniform(lo, hi)
            res = qh_distance(dom, a, b)
            assert res.lower_bound_gap >= -1e-6
            assert res.qh_length >= qh_lower_bound(dom, a, b) - 1e-6


def test_triangle_inequality_sampled_oracles():
    # full 1e3 triples on domains with closed forms
    rng = np.random.default_rng(9)
    for n in range(1000):
        pts = np.stack([rng.uniform([-2, 0.3], [2, 2.5]) for _ in range(3)])
        dxz = halfplane_distance_oracle(pts[0], pts[2])
        dxy = halfplane_distance_oracle(pts[0], pts[1])
        dyz = halfplane_distance_oracle(pts[1], pts[2])
        assert dxz <= dxy + dyz + 1e-10
    for n in range(1000):
        pts = rng.uniform(-2, 2, size=(3, 2))
        if (np.linalg.norm(pts, axis=1) < 0.05).any():
            continue
        dxz = punctured_distance_oracle(pts[0], pts[2])
        dxy = punctured_distance_oracle(pts[0], pts[1])
        dyz = punctured_distance_oracle(pts[1], pts[2])
        assert dxz <= dxy + dyz + 1e-10


def test_triangle_inequality_solver_strip():
    # solver-level triangle check; tolerance covers discretization bias
    rng = np.random.default_rng(21)
    pts = rng.uniform([-1.4, -0.75], [1.4, 0.75], size=(60, 2))
    for i in range(0, 60, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        kxz = qh_distance(ST, x, z).qh_length
        kxy = qh_distance(ST, x, y).qh_length
        kyz = qh_distance(ST, y, z).qh_length
        assert kxz <= kxy + kyz + 3 * QUAD_ABS_TOL + 2e-4 * (kxy + kyz)


def test_midpoint_convexity_of_length_functional():
    # pointwise averages of paths in a convex domain never cost more than
    # the average cost
    rng = np.random.default_rng(4)
    dom = ST
    checked = 0
    while checked < 200:
        V0 = rng.uniform([-1.5, -0.8], [1.5, 0.8], size=(6, 2))
        V1 = rng.uniform([-1.5, -0.8], [1.5, 0.8], size=(6, 2))
        try:
            p0, p1 = Polyline(V0), Polyline(V1)
            mid = Polyline(0.5 * (V0 + V1))
            l0 = qh_path_length(dom, p0)
            l1 = qh_path_length(dom, p1)
            lm = qh_path_length(dom, mid)
        except Exception:
            continue
        assert lm <= 0.5 * (l0 + l1) + 2 * QUAD_ABS_TOL
        checked += 1


def test_grid_init_convex_shortcut():
    path = grid_init(ST, np.array([-1.0, 0.3]), np.array([1.0, -0.4]))
    assert len(path.vertices) >= 2
    # straight chord in a convex domain
    seg = np.diff(path.vertices, axis=0)
    cross = seg[:-1, 0] * seg[1:, 1] - seg[:-1, 1] * seg[1:, 0]
    assert np.abs(cross).max() < 1e-12


def test_grid_init_punctured_regression():
    s = SolverConfig(grid_resolution=64.0)
    path = grid_init(PP, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), s)
    L = qh_path_length(PP, path)
    assert L <= 1.1 * np.pi
    # frozen regression band for the default stencil at this resolution
    assert 3.145 < L < 3.18


def test_grid_init_no_path():
    # separate the endpoints with an impassable slit wall
    from qhtk.geometry import BoxPrimitive, DomainSpec, RemovedSegment

    dom = DomainSpec(
        2,
        (BoxPrimitive((-1.0, -1.0), (1.0, 1.0)),),
        (RemovedSegment((0.0, -1.0), (0.0, 1.0)),),
    )
    with pytest.raises(NoPathError):
        grid_init(dom, np.array([-0.5, 0.0]), np.array([0.5, 0.0]),
                  SolverConfig(grid_resolution=16.0))


def test_multiplicity_punctured_two_halfcircles():
    ms = geodesic_multiplicity(PP, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert len(ms) == 2
    ys = sorted(m.path.vertices[:, 1].mean() for m in ms)
    assert ys[0] < -0.3 < 0.3 < ys[1]
    assert abs(ms[0].qh_length - ms[1].qh_length) < 1e-6


def test_multiplicity_halfplane_unique():
    ms = geodesic_multiplicity(HP, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    assert len(ms) == 1


def test_grid_refinement_consistency():
    # doubling resolution and budget moves the answer monotonically less
    x, y = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    vals = []
    for res, budget in ((16, 17), (32, 33), (64, 65)):
        s = SolverConfig(grid_resolution=res, vertex_budget=budget)
        vals.append(qh_distance(PP, x, y, s).qh_length)
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1
    assert abs(vals[-1] - np.pi) < abs(vals[0] - np.pi)


def test_geodesic_stability_under_endpoint_perturbation():
    # empirical variational stability: sup and discrete-derivative L1
    # distances scale linearly with the endpoint perturbation
    x, y = np.array([-1.0, 1.0]), np.array([1.0, 1.2])
    base = qh_distance(HP, x, y)
    B = base.path.resample(200).vertices
    dB = np.diff(B, axis=0)
    consts = []
    for delta in (2e-3, 1e-3):
        pert = qh_distance(HP, x, y + np.array([0.0, delta]))
        P = pert.path.resample(200).vertices
        sup = np.abs(P - B).max()
        dP = np.diff(P, axis=0)
        l1 = np.abs(dP - dB).sum()
        consts.append((sup / delta, l1 / delta))
    # constants recorded and stable under halving (no blow-up)
    assert consts[1][0] <= 4.0 * max(consts[0][0], 1.0)
    assert consts[1][1] <= 4.0 * max(consts[0][1], 1.0)


def test_batch_matches_sequential():
    rng = np.random.default_rng(8)
    A = np.stack([rng.uniform(-1.5, 1.5, 6), rng.uniform(0.4, 2.0, 6)], axis=1)
    B = np.stack([rng.uniform(-1.5, 1.5, 6), rng.uniform(0.4, 2.0, 6)], axis=1)
    s = SolverConfig(refinement=RefinementConfig(max_iterations=120, gradient_tol=1e-4))
    L, V, _ = solve_batch(HP, A, B, s, vertex_count=33)
    assert V.shape == (6, 33, 2)
    for i in range(6):
        oracle = halfplane_distance_oracle(A[i], B[i])
        assert L[i] == pytest.approx(oracle, rel=2e-4, abs=2e-4)
        assert np.allclose(V[i, [0, -1]], [A[i], B[i]], rtol=0.0, atol=1e-15)


def test_batch_composition_keeps_bits():
    # no arithmetic mixes the paths of a batch, so a pair solved alone
    # matches the same pair inside a batch to the bit
    rng = np.random.default_rng(11)
    A = np.stack([rng.uniform(-1.5, 1.5, 100), rng.uniform(0.4, 2.0, 100)], axis=1)
    B = np.stack([rng.uniform(-1.5, 1.5, 100), rng.uniform(0.4, 2.0, 100)], axis=1)
    L, V, G = solve_batch(HP, A, B)
    for j in (0, 57):
        L1, V1, G1 = solve_batch(HP, A[j:j + 1], B[j:j + 1])
        assert L1[0] == L[j]
        assert G1[0] == G[j]
        assert np.array_equal(V1[0], V[j])


def test_box_solve_converges_across_seams():
    res = qh_distance(symmetric_box(), np.array([-0.3, 0.2]), np.array([0.5, -0.4]))
    assert res.converged
    assert res.qh_length == pytest.approx(1.30578, abs=5e-4)


def test_pnorm_halfspace_solve():
    # axis-aligned boundary distances are norm-independent, so the vertical
    # chord still integrates to 1; lower bound holds throughout
    from qhtk.geometry import DomainSpec, HalfSpace, NormSpec

    dom = DomainSpec(2, (HalfSpace((0.0, 1.0), 0.0),), norm=NormSpec("p", 4.0))
    res = qh_distance(dom, np.array([0.0, 1.0]), np.array([0.0, np.e]))
    assert res.converged
    assert res.qh_length == pytest.approx(1.0, abs=1e-6)
    res2 = qh_distance(dom, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    assert res2.converged
    assert res2.lower_bound_gap >= -1e-6
    # the p=4 unit ball is wider than the Euclidean one: cheaper crossing
    assert res2.qh_length < np.arccosh(3.0)


# refinement history of each reference solve, keyed by its start point:
# (entries, last entry)
REFERENCE_HISTORY = {
    (-1.6, -0.5): (433, 3.783342186445954),
    (-0.3, 0.2): (203, 1.30578557658793),
    (0.22, -0.47): (286, 1.3793657709894034),
}


@pytest.mark.parametrize("domain, x, y, length, iterations", [
    (prolongation_polygon(), (-1.6, -0.5), (-0.6, -1.6), 3.783342181847246, 564),
    (symmetric_box(), (-0.3, 0.2), (0.5, -0.4), 1.3057882070015017, 355),
    # the last level's final iterate is worse than its best one, which the
    # descent must return
    (strip(), (0.22, -0.47), (0.97, 0.31), 1.3793687397111027, 524),
])
def test_refine_path_reference_values(domain, x, y, length, iterations):
    # reference values of the descent before its kernels were shared with
    # the batch engine; the shared kernels must not move them
    res = qh_distance(domain, np.array(x), np.array(y))
    assert res.converged
    assert res.iterations == iterations
    assert res.qh_length == pytest.approx(length, rel=1e-12)
    entries, last = REFERENCE_HISTORY[x]
    assert len(res.refinement_history) == entries
    assert res.refinement_history[-1] == pytest.approx(last, rel=1e-12)


def test_relax_counts_only_taken_moves():
    # a sweep that moves few vertices must not be stopped by the negative
    # gains of the vertices it left in place
    a, b = np.array([-1.2470, 0.9403]), np.array([0.6336, 0.9403])
    _, V, _ = solve_batch(HP, a[None], b[None], vertex_count=33, relax_sweeps=0)
    lengths = {}
    for sweeps in (1, 30):
        Vs = V.copy()
        _, vals = _batch_objective(HP, Vs)
        _, f, _ = _batch_relax(HP, Vs, vals, np.ones(1, dtype=bool), sweeps)
        lengths[sweeps] = f[0]
    assert lengths[30] < lengths[1] - 5e-8
    assert lengths[30] == pytest.approx(1.7629247955225202, rel=1e-12)


def test_solve_batch_rejects_short_paths():
    a, b = np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])
    for count in (2, 1, 0):
        with pytest.raises(InvalidInputError):
            solve_batch(HP, a, b, vertex_count=count)


# --- node-major kernels against their row-major reference ------------------

def reference_segment_values(domain, A, B):
    """Row-major (n, 7, dim) form of the fixed-node Simpson kernel."""
    seg = B - A
    lens = domain.norm.eval(seg)
    pts = A[:, None, :] + seg[:, None, :] * _NODES[None, :, None]
    d = domain.depth_many(pts.reshape(-1, A.shape[1])).reshape(A.shape[0], 7)
    bad = (d <= 0.0).any(axis=1)
    d = np.where(d <= 0.0, 1.0, d)
    vals = lens * ((1.0 / d) @ _WEIGHTS)
    vals[bad] = np.inf
    return vals


def reference_screen(domain, Vs):
    """Row-major (P, m-1, 5, dim) form of the interiority screen."""
    P, m, dim = Vs.shape
    seg = Vs[:, 1:] - Vs[:, :-1]
    pts = Vs[:, :-1][:, :, None, :] + seg[:, :, None, :] * _SCREEN_NODES[None, None, :, None]
    d = domain.depth_many(pts.reshape(-1, dim)).reshape(P, m - 1, 5)
    out = (d > 0.0).all(axis=(1, 2))
    slen = np.sqrt((seg * seg).sum(axis=2)) / 4.0
    risky = ~(d[:, :, :-1] + d[:, :, 1:] > slen[:, :, None]).all(axis=2)
    for p, i in zip(*np.nonzero(out[:, None] & risky)):
        if out[p] and not certify_segment(domain, Vs[p, i], Vs[p, i + 1]):
            out[p] = False
    return out


PLANAR = ("half-plane", "strip", "box", "punctured-plane", "polygon-P", "omega-n:3",
          "omega-n:5")


def _kernel_domains():
    doms = {name: resolve_domain(name) for name in PLANAR}
    doms.update({f"{name}/p4": DomainSpec(d.dimension, d.primitives, d.removals,
                                         norm=NormSpec("p", 4.0))
                 for name, d in list(doms.items())})
    doms.update({name: resolve_domain(name) for name in ("unit-ball", "slab3d")})
    return doms


KERNEL_DOMAINS = _kernel_domains()


def _window(domain, pad=0.0):
    lo, hi = domain.window_hint()
    lo = np.array([-2.0 if b is None else b for b in lo]) - pad
    hi = np.array([2.0 if b is None else b for b in hi]) + pad
    return lo, hi


def _interior_points(domain, n, rng):
    lo, hi = _window(domain)
    X = np.empty((0, domain.dimension))
    while X.shape[0] < n:
        Y = rng.uniform(lo, hi, size=(4 * n, domain.dimension))
        X = np.concatenate([X, Y[domain.depth_many(Y) > 1e-3]])
    return X[:n]


def _outside_point(domain, rng):
    """A point of zero or negative depth (the origin for the punctured plane)."""
    lo, hi = _window(domain, pad=0.5)
    Y = np.vstack([np.zeros(domain.dimension), rng.uniform(lo, hi, (200, domain.dimension))])
    return Y[domain.depth_many(Y) <= 0.0][-1]


def _steps(domain, X, rng):
    """Random steps of up to 1.5x the boundary distance: some leave the domain."""
    u = rng.normal(size=X.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return rng.uniform(0.05, 1.5, size=(X.shape[0], 1)) * domain.depth_many(X)[:, None] * u


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_segment_values_match_row_major_reference(name):
    domain = KERNEL_DOMAINS[name]
    rng = np.random.default_rng(21)
    for n in (2, 48, 9600):
        A = _interior_points(domain, n, rng)
        step = _steps(domain, A, rng)
        step[0] *= 0.5  # shorter than the boundary distance: stays inside
        B = A + step
        B[-1] = _outside_point(domain, rng)
        got = _segment_values(domain, A, B)
        assert np.array_equal(got, reference_segment_values(domain, A, B))
        assert got[-1] == np.inf and np.isfinite(got[0])


@pytest.mark.parametrize("name", ["half-plane", "polygon-P", "omega-n:3/p4"])
def test_lone_segment_keeps_its_batched_bits(name):
    # a one-row contraction must round like the batched one
    domain = KERNEL_DOMAINS[name]
    rng = np.random.default_rng(23)
    A = _interior_points(domain, 200, rng)
    B = A + 0.5 * _steps(domain, A, rng)
    batched = _segment_values(domain, A, B)
    alone = np.array([_segment_values(domain, A[i:i + 1], B[i:i + 1])[0] for i in range(200)])
    assert np.array_equal(alone, batched)


@pytest.mark.parametrize("P, k, K", [(1, 17, 241), (17, 241, 1)])
def test_move_costs_match_segment_pairs(P, k, K):
    # one candidate more than a block: the blocks hold whole (path, vertex)
    # rows, so K = 241 splits 16 + 1 rows and K = 1 splits 4,096 + 1; the
    # first and the last candidate leave the domain
    assert P * k * K == _MOVE_BLOCK + 1
    domain = KERNEL_DOMAINS["omega-n:3"]
    rng = np.random.default_rng(24)
    m = k + 2
    W = np.empty((P, m, 2))
    W[:, 0] = _interior_points(domain, P, rng)
    for j in range(1, m):
        W[:, j] = W[:, j - 1] + 0.25 * _steps(domain, W[:, 0], rng)
    cols = np.arange(1, m - 1)
    X = np.repeat(W[:, cols], K, axis=1).reshape(P, k, K, 2)
    C = X + 1.2 * _steps(domain, X.reshape(-1, 2), rng).reshape(X.shape)
    C[0, 0, 0] = C[-1, -1, -1] = _outside_point(domain, rng)
    got = _move_costs(domain, W, cols, C)
    ref = np.empty((P, k, K))
    for p, j, c in np.ndindex(P, k, K):
        a, b, x = W[p, cols[j] - 1], W[p, cols[j] + 1], C[p, j, c]
        sv = _segment_values(domain, np.stack([a, x]), np.stack([x, b]))
        ref[p, j, c] = sv[0] + sv[1]
    assert np.array_equal(got, ref)
    assert np.isinf(got[0, 0, 0]) and np.isinf(got[-1, -1, -1]) and np.isfinite(got).any()


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_screen_matches_row_major_reference(name):
    domain = KERNEL_DOMAINS[name]
    rng = np.random.default_rng(22)
    for P, m in ((1, 3), (3, 17), (600, 17)):
        X = _interior_points(domain, P, rng)
        # random walks whose steps scale with the depth at the start
        Vs = np.empty((P, m, domain.dimension))
        Vs[:, 0] = X
        for j in range(1, m):
            Vs[:, j] = Vs[:, j - 1] + 0.25 * _steps(domain, X, rng)
        if P > 1:
            Vs[-1, m // 2] = _outside_point(domain, rng)
        got = _batch_screen(domain, Vs)
        assert np.array_equal(got, reference_screen(domain, Vs))
        if P > 1:
            assert got.any() and not got[-1]


# --- refine_paths: one batch per start count --------------------------------

def _refine_one(domain, seed, s):
    """``refine_path``'s result for one seed, or the QHError it raises."""
    try:
        return refine_path(domain, seed, s)
    except QHError as err:
        return err


def _assert_same_entry(a, b):
    assert type(a) is type(b)
    if isinstance(a, QHError):
        assert str(a) == str(b)
        return
    assert np.array_equal(a.path.vertices, b.path.vertices)
    assert a.qh_length == b.qh_length
    assert a.lower_bound_gap == b.lower_bound_gap
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.refinement_history == b.refinement_history
    assert a.meta == b.meta


def _starlike_seeds():
    x, y = np.array([0.5, 0.0, 1.0]), np.array([-0.5, 0.0, 1.0])
    return [Polyline(np.array([x, [0.35, 0.35 * sgn, 1.0], [0.0, 0.5 * sgn, 1.0],
                               [-0.35, 0.35 * sgn, 1.0], y])) for sgn in (1.0, -1.0)]


@pytest.mark.parametrize("case", ["omega-3", "starlike3d"])
def test_refine_paths_matches_one_seed_solves(case):
    # every seed of a verdict's batch gets the bits it gets alone, in seed order
    if case == "omega-3":
        domain, s = build_omega_n(3), OMEGA_SOLVER[3]
        seeds = [sign_pattern_seed(3, signs) for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    else:
        domain = starlike3d()
        s = SolverConfig(vertex_budget=65, refinement=RefinementConfig(
            max_iterations=80, gradient_tol=5e-4))
        seeds = _starlike_seeds()
    batch = refine_paths(domain, seeds, s)
    assert len(batch) == len(seeds)
    for seed, entry in zip(seeds, batch):
        assert isinstance(entry, GeodesicResult)
        _assert_same_entry(entry, _refine_one(domain, seed, s))


def test_refine_paths_mixed_starts_and_a_seed_outside():
    domain = build_omega_n(3)
    s = SolverConfig(vertex_budget=17, refinement=RefinementConfig(
        max_iterations=60, gradient_tol=5e-4))
    x, y = omega_endpoints(3)
    # a seed that hugs both removed points certifies only at 17 vertices
    top = np.linspace(np.pi, 0.0, 13)
    bottom = np.linspace(np.pi, 2.0 * np.pi, 13)
    hugging = Polyline(np.vstack([
        x, 0.1 * np.stack([np.cos(top), np.sin(top)], axis=1), [[SQRT3 / 2.0, 0.0]],
        [SQRT3, 0.0] + 0.1 * np.stack([np.cos(bottom), np.sin(bottom)], axis=1), y]))
    # a sign seed with one waypoint pulled out of the rectangle
    V = sign_pattern_seed(3, (1, 1)).vertices.copy()
    V[2, 1] = 1.2
    outside = Polyline(V)
    seeds = [sign_pattern_seed(3, (1, -1)), hugging, outside, sign_pattern_seed(3, (-1, -1))]
    assert [_certified_start(domain, seed, 17) for seed in seeds] == [9, 17, 17, 9]
    batch = refine_paths(domain, seeds, s)
    assert isinstance(batch[2], DomainViolationError)
    for i in (0, 1, 3):
        assert isinstance(batch[i], GeodesicResult)
    for seed, entry in zip(seeds, batch):
        _assert_same_entry(entry, _refine_one(domain, seed, s))
    with pytest.raises(DomainViolationError) as err:
        refine_path(domain, outside, s)
    assert str(err.value) == str(batch[2])
