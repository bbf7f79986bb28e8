"""Boundary points, sweeps, the growth metric, and the quadrature oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachwarp import (DimensionError, DomainError, FrobeniusBall, GeometryError,
                       LinearSystem, NumericError, boundary_point, boundary_sweep,
                       box_polytope, costate_path, direction_fan, growth_metric,
                       mat_exp, optimize_B, parse_config, sample_ball, support_oracle,
                       verify_optimality, vertex_polytope, zero_input_endpoint)
from reachwarp import reach, warp
from reachwarp.fixtures import fixture_config, fixture_names
from reachwarp.reach import (_costate_tables, _costate_weights, _growth, _pick,
                             _power_block, _score_factor, _step_matrices,
                             _vertex_runs)

from conftest import series_exp

BOX2 = box_polytope([-1.0, -1.0], [1.0, 1.0])

INTEGRATOR = LinearSystem(A=np.zeros((2, 2)), X0=[0.0, 0.0], T=1.0, m=2)

SCALAR = LinearSystem(A=[[-1.0]], X0=[0.0], T=1.0, m=1)

BOX1 = box_polytope([-1.0], [1.0])


def test_costate_terminal_condition():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        sys_ = LinearSystem(A=rng.standard_normal((n, n)), X0=np.zeros(n),
                            T=float(rng.uniform(0.5, 2.0)), m=1)
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        path = costate_path(sys_, d)
        assert np.max(np.abs(path.at(sys_.T) - d)) <= 1e-12


def test_costate_diagonal_closed_form():
    T = np.log(2.0)
    sys_ = LinearSystem(A=np.diag([-1.0, -2.0]), X0=[0.0, 0.0], T=T, m=1)
    path = costate_path(sys_, [1.0, 0.0])
    assert np.allclose(path.at(0.0), [0.5, 0.0], atol=1e-14)


def test_costate_zero_dynamics():
    sys_ = LinearSystem(A=np.zeros((2, 2)), X0=[0.0, 0.0], T=2.0, m=1)
    path = costate_path(sys_, [0.0, 1.0])
    for t in (0.0, 0.7, 2.0):
        assert np.array_equal(path.at(t), [0.0, 1.0])


def test_costate_rejects_time_outside_horizon():
    path = costate_path(SCALAR, [1.0])
    with pytest.raises(DomainError):
        path.at(-0.1)
    with pytest.raises(DomainError):
        path.at(1.1)


def test_boundary_point_integrator_tie_break():
    bp = boundary_point(INTEGRATOR, np.eye(2), BOX2, [1.0, 0.0], steps=100)
    assert np.allclose(bp.X_dB, [1.0, -1.0], atol=1e-13)
    assert abs(bp.support_value - 1.0) <= 1e-13
    assert bp.switch_times == ((0.0, 1),)


def test_boundary_point_scalar_analytic():
    bp = boundary_point(SCALAR, [[1.5]], BOX1, [1.0], steps=2000)
    expected = 1.5 * (1.0 - np.exp(-1.0))
    # no switches, so the only error left is matrix-exponential round-off
    assert abs(bp.support_value - expected) <= 1e-12
    assert bp.steps == 2000


def test_boundary_point_tie_break_lowest_index():
    # d = e2 ties (-1, 1) with (1, 1); B = 0 ties every vertex
    bp = boundary_point(INTEGRATOR, np.eye(2), BOX2, [0.0, 1.0], steps=100)
    assert np.allclose(bp.X_dB, [-1.0, 1.0], atol=1e-13)
    assert bp.switch_times == ((0.0, 2),)
    bp = boundary_point(INTEGRATOR, np.zeros((2, 2)), BOX2, [0.0, 1.0], steps=100)
    assert bp.switch_times == ((0.0, 0),)


def test_boundary_point_single_step_exact_flow():
    A = np.array([[-0.3, 1.0], [0.0, -0.6]])
    sys_ = LinearSystem(A=A, X0=[1.0, -2.0], T=0.7, m=2)
    B = np.array([[0.5, -1.0], [2.0, 0.3]])
    d = np.array([0.6, 0.8])
    bp = boundary_point(sys_, B, BOX2, d, steps=1)
    # one step holds the vertex chosen at t = T/2, then flows exactly
    p_mid = series_exp(A.T * 0.35) @ d
    u = BOX2.vertices[int(np.argmax(BOX2.vertices @ (B.T @ p_mid)))]
    aug = np.zeros((3, 3))
    aug[:2, :2] = A * 0.7
    aug[:2, 2] = (B @ u) * 0.7
    flow = series_exp(aug)
    assert np.max(np.abs(bp.X_dB - (flow[:2, :2] @ sys_.X0 + flow[:2, 2]))) <= 1e-13


def test_boundary_point_zero_input_matrix():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((3, 3)) * 0.5
    sys_ = LinearSystem(A=A, X0=rng.standard_normal(3), T=1.3, m=2)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    bp = boundary_point(sys_, np.zeros((3, 2)), BOX2, d, steps=400)
    assert np.allclose(bp.X_dB, mat_exp(A * 1.3) @ sys_.X0, atol=1e-11)


def test_boundary_point_support_equals_projection():
    bp = boundary_point(SCALAR, [[1.0]], BOX1, [1.0])
    assert bp.support_value == float(bp.d @ bp.X_dB)


def test_boundary_point_switch_times_nondecreasing():
    sys_ = LinearSystem(A=[[0.0, 1.0], [-2.0, -0.8]], X0=[0.0, 0.0], T=2.0, m=2)
    bp = boundary_point(sys_, [[0.0, 1.0], [1.0, 0.0]], BOX2, [1.0, 0.0])
    times = [t for t, _ in bp.switch_times]
    assert times == sorted(times)
    assert times[0] == 0.0
    indices = [j for _, j in bp.switch_times]
    assert all(indices[k] != indices[k + 1] for k in range(len(indices) - 1))


def test_boundary_point_overflow_raises_numeric_error():
    sys_ = LinearSystem(A=[[50.0]], X0=[0.0], T=20.0, m=1)
    with pytest.raises(NumericError):
        with np.errstate(over="ignore", invalid="ignore"):
            boundary_point(sys_, [[1.0]], BOX1, [1.0], steps=200)


def test_boundary_point_rejects_bad_arguments():
    with pytest.raises(DomainError):
        boundary_point(SCALAR, [[1.0]], BOX1, [1.0], steps=0)
    with pytest.raises(DimensionError):
        boundary_point(SCALAR, [[1.0, 2.0]], BOX1, [1.0])
    with pytest.raises(DimensionError):
        boundary_point(SCALAR, [[1.0]], BOX2, [1.0])


def test_midpoint_costates_match_direct_exponentials():
    # 130 = 10 * 12 + 10 steps leave a partial last block in the power tables
    rng = np.random.default_rng(29)
    A = rng.standard_normal((3, 3)) * 0.8
    T = 1.7
    steps = 130
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    P = _costate_tables(A.tobytes(), 3, d.tobytes(), T, steps)[0]
    h = T / steps
    for k in range(0, steps, 7):
        t_mid = (k + 0.5) * h
        direct = mat_exp(A.T * (T - t_mid)) @ d
        assert np.max(np.abs(P[k] - direct)) <= 1e-10


def test_zero_input_endpoint_cases():
    assert np.allclose(zero_input_endpoint(
        LinearSystem(A=[[-1.0]], X0=[2.0], T=1.0, m=1)), [2.0 * np.exp(-1.0)],
        atol=1e-14)
    assert np.array_equal(zero_input_endpoint(
        LinearSystem(A=np.zeros((2, 2)), X0=[3.0, -1.0], T=5.0, m=1)), [3.0, -1.0])
    assert np.array_equal(zero_input_endpoint(
        LinearSystem(A=[[4.0]], X0=[0.0], T=1.0, m=1)), [0.0])


def test_growth_metric_zero_matrix_is_zero():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((2, 2)) * 0.4
    sys_ = LinearSystem(A=A, X0=rng.standard_normal(2), T=1.1, m=2)
    report = growth_metric(sys_, np.zeros((2, 2)), BOX2, [1.0, 0.0], steps=300)
    assert abs(report.G_d) <= 1e-12


def test_growth_metric_scalar_and_integrator():
    g = growth_metric(SCALAR, [[1.5]], BOX1, [1.0]).G_d
    assert abs(g - 1.5 * (1.0 - np.exp(-1.0))) <= 1e-12
    g = growth_metric(INTEGRATOR, np.eye(2), BOX2, [1.0, 0.0], steps=100).G_d
    assert abs(g - 1.0) <= 1e-13


def test_growth_metric_identity():
    bp = growth_metric(SCALAR, [[1.0]], BOX1, [1.0])
    assert abs(bp.G_d - float(bp.X_dB[0] - bp.c0[0])) <= 1e-15


def test_growth_metric_nonnegative_when_zero_admissible():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        sys_ = LinearSystem(A=rng.standard_normal((n, n)) * 0.6,
                            X0=rng.standard_normal(n),
                            T=float(rng.uniform(0.5, 1.5)), m=m)
        U = box_polytope(-np.ones(m), np.ones(m))
        B = rng.standard_normal((n, m))
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        assert growth_metric(sys_, B, U, d, steps=400).G_d >= -1e-10


def test_growth_metric_linear_in_B_without_switches():
    # diagonal A with d = e1 keeps the vertex schedule fixed, so doubling B
    # doubles the metric exactly (X0 = 0)
    sys_ = LinearSystem(A=np.diag([-1.0, -0.5]), X0=[0.0, 0.0], T=2.0, m=2)
    B = np.array([[0.8, -0.3], [0.2, 0.9]])
    g1 = growth_metric(sys_, B, BOX2, [1.0, 0.0], steps=500).G_d
    g2 = growth_metric(sys_, 2.0 * B, BOX2, [1.0, 0.0], steps=500).G_d
    assert abs(g2 - 2.0 * g1) <= 1e-12 * max(1.0, abs(g2))


def test_boundary_sweep_matches_pointwise_and_preserves_order():
    dirs = direction_fan(2, 8)
    sys_ = LinearSystem(A=[[0.0, 1.0], [-2.0, -0.8]], X0=[0.1, -0.2], T=1.5, m=2)
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    swept = boundary_sweep(sys_, B, BOX2, dirs, steps=300)
    assert len(swept) == 8
    for d, bp in zip(dirs, swept):
        single = boundary_point(sys_, B, BOX2, d, steps=300)
        assert np.array_equal(bp.X_dB, single.X_dB)
        assert bp.support_value == single.support_value


def test_boundary_sweep_integrator_symmetry():
    dirs = [np.array(v) for v in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    for bp in boundary_sweep(INTEGRATOR, np.eye(2), BOX2, dirs, steps=50):
        assert abs(bp.support_value - 1.0) <= 1e-13


def test_boundary_sweep_rejects_empty():
    with pytest.raises(GeometryError):
        boundary_sweep(SCALAR, [[1.0]], BOX1, [])


def test_support_maximality_across_sweep():
    sys_ = LinearSystem(A=[[0.0, 1.0], [-2.0, -0.8]], X0=[0.2, 0.0], T=2.0, m=2)
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    points = boundary_sweep(sys_, B, BOX2, direction_fan(2, 32), steps=800)
    D = np.array([p.d for p in points])
    X = np.array([p.X_dB for p in points])
    projections = D @ X.T
    own = np.diag(projections)
    assert np.all(own >= projections.max(axis=1) - 1e-7)


def test_direction_fan_planar():
    fan = direction_fan(2, 4)
    expected = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    for v, e in zip(fan, expected):
        assert np.max(np.abs(v - np.array(e))) <= 1e-12
    two = direction_fan(2, 2)
    assert np.max(np.abs(two[0] - [1.0, 0.0])) <= 1e-12
    assert np.max(np.abs(two[1] - [-1.0, 0.0])) <= 1e-12


def test_direction_fan_line():
    fan = direction_fan(1, 2)
    assert np.array_equal(fan[0], [1.0])
    assert np.array_equal(fan[1], [-1.0])
    with pytest.raises(DomainError):
        direction_fan(1, 3)


def test_direction_fan_sphere_and_higher():
    fan = direction_fan(3, 100)
    arr = np.array(fan)
    assert arr.shape == (100, 3)
    assert np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) <= 1e-12
    assert len({tuple(v) for v in arr}) == 100
    assert np.array_equal(np.array(direction_fan(3, 100)), arr)
    hi = np.array(direction_fan(4, 25, seed=9))
    assert hi.shape == (25, 4)
    assert np.max(np.abs(np.linalg.norm(hi, axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(np.array(direction_fan(4, 25, seed=9)), hi)
    with pytest.raises(DomainError):
        direction_fan(3, 0)


def test_support_oracle_closed_forms():
    assert abs(support_oracle(INTEGRATOR, np.eye(2), BOX2, [1.0, 0.0]) - 1.0) <= 1e-9
    expected = 1.5 * (1.0 - np.exp(-1.0))
    assert abs(support_oracle(SCALAR, [[1.5]], BOX1, [1.0]) - expected) <= 1e-9
    rng = np.random.default_rng(47)
    A = rng.standard_normal((2, 2)) * 0.5
    sys_ = LinearSystem(A=A, X0=rng.standard_normal(2), T=1.2, m=2)
    d = rng.standard_normal(2)
    d /= np.linalg.norm(d)
    drift_only = support_oracle(sys_, np.zeros((2, 2)), BOX2, d)
    assert abs(drift_only - float(d @ mat_exp(A * 1.2) @ sys_.X0)) <= 1e-9


def test_support_oracle_blocked_scan_matches_naive_recursion():
    rng = np.random.default_rng(53)
    A = rng.standard_normal((3, 3)) * 0.7
    sys_ = LinearSystem(A=A, X0=rng.standard_normal(3), T=1.4, m=2)
    B = rng.standard_normal((3, 2))
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    quad_nodes = 100
    got = support_oracle(sys_, B, BOX2, d, quad_nodes=quad_nodes)
    # literal per-node recursion, written out independently
    npts = 2 * quad_nodes + 1
    delta = sys_.T / (npts - 1)
    w = mat_exp(A.T * sys_.T) @ d
    step = mat_exp(-A.T * delta)
    BV = B @ BOX2.vertices.T
    phi = np.empty(npts)
    for j in range(npts):
        phi[j] = np.max(w @ BV)
        w = step @ w
    weights = np.ones(npts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    expected = float(d @ mat_exp(A * sys_.T) @ sys_.X0) + float(delta / 3.0 * (weights @ phi))
    assert abs(got - expected) <= 1e-10


def test_support_oracle_agrees_with_boundary_point():
    sys_ = LinearSystem(A=[[0.0, 1.0], [-2.0, -0.8]], X0=[0.0, 0.0], T=2.0, m=2)
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    for d in direction_fan(2, 6):
        s1 = boundary_point(sys_, B, BOX2, d).support_value
        s2 = support_oracle(sys_, B, BOX2, d)
        assert abs(s1 - s2) <= 1e-5 * (1.0 + abs(s1))


def test_support_oracle_rejects_few_nodes():
    with pytest.raises(DomainError):
        support_oracle(SCALAR, [[1.0]], BOX1, [1.0], quad_nodes=1)


def test_series_oracle_sanity():
    # the Taylor helper used across the suite reproduces a known exponential
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    assert np.max(np.abs(series_exp(A) - expected)) <= 1e-12


def _naive_boundary_point(sys_, B, U, d, steps):
    """Per-step reference: hold each step's vertex, apply the exact step map."""
    E, Gam, _ = _step_matrices(sys_.A.tobytes(), sys_.n, sys_.T / steps)
    P = _costate_tables(sys_.A.tobytes(), sys_.n, d.tobytes(), sys_.T, steps)[0]
    x = np.array(sys_.X0, dtype=float)
    for k in range(steps):
        u = U.vertices[int(np.argmax(U.vertices @ (B.T @ P[k])))]
        x = E @ x + Gam @ (B @ u)
    return x


def test_boundary_point_matches_naive_step_loop():
    b = 12
    cases = [(3, steps) for steps in (1, 2, b * b - 1, b * b, b * b + 1)]
    cases.append((32, 16000))
    assert _power_block(b * b) == b and _power_block(b * b + 1) == b + 1
    rng = np.random.default_rng(61)
    for n, steps in cases:
        A = rng.standard_normal((n, n))
        T = 1.3
        A *= 3.0 / (T * np.linalg.norm(A, 2))
        sys_ = LinearSystem(A=A, X0=rng.standard_normal(n), T=T, m=2)
        B = rng.standard_normal((n, 2))
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        got = boundary_point(sys_, B, BOX2, d, steps=steps).X_dB
        ref = _naive_boundary_point(sys_, B, BOX2, d, steps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", fixture_names())
def test_growth_kernel_matches_boundary_projection(name):
    problem = parse_config(fixture_config(name))
    sys_, U, d = problem.system, problem.control, problem.direction
    P, W = _costate_weights(sys_, d, problem.steps)
    c0 = zero_input_endpoint(sys_)
    for M in sample_ball(problem.ball, 20, seed=8):
        G = _growth(P, W, M, U)
        X = boundary_point(sys_, M, U, d, problem.steps).X_dB
        assert abs(G - float(d @ (X - c0))) <= 1e-12 * (1.0 + abs(G))


@pytest.mark.parametrize("name", fixture_names())
def test_sweep_and_growth_factorings_pick_the_same_vertices(name):
    # a sweep scores through the B-side table, G_d through the d-side P table
    problem = parse_config(fixture_config(name))
    sys_, U, steps = problem.system, problem.control, problem.steps
    B_star = optimize_B(sys_, U, problem.ball, problem.direction, problem.sense,
                        steps).B_star
    fan = direction_fan(sys_.n, 64 if sys_.n > 1 else 2)
    c0 = zero_input_endpoint(sys_)
    h = sys_.T / steps
    for B in (problem.ball.center, B_star):
        for bp in boundary_sweep(sys_, B, U, fan, steps):
            P, W = _costate_tables(sys_.A.tobytes(), sys_.n, bp.d.tobytes(), sys_.T,
                                   steps)
            starts, vertex = _vertex_runs(np.argmax(P @ (B @ U.vertices.T), axis=1))
            assert bp.switch_times == tuple((float(s * h), int(j))
                                            for s, j in zip(starts, vertex))
            G = _growth(P, W, B, U)
            assert abs(bp.support_value - float(bp.d @ c0) - G) <= 1e-12 * (1.0 + abs(G))


def test_verify_exponential_count_independent_of_samples(monkeypatch):
    problem = parse_config(fixture_config("oscillator"))
    calls = []

    def counting_mat_exp(M):
        calls.append(1)
        return mat_exp(M)

    monkeypatch.setattr(reach, "mat_exp", counting_mat_exp)
    monkeypatch.setattr(warp, "mat_exp", counting_mat_exp)
    counts = []
    for k in (5, 60):
        for fn in vars(reach).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        calls.clear()
        verify_optimality(problem.system, problem.control, problem.ball,
                          problem.direction, problem.sense, k=k, seed=3,
                          steps=400)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_growth_kernel_overflow_raises_numeric_error():
    sys_ = LinearSystem(A=[[50.0]], X0=[0.0], T=20.0, m=1)
    d = np.array([1.0])
    with pytest.raises(NumericError):
        with np.errstate(over="ignore", invalid="ignore"):
            _growth(*_costate_weights(sys_, d, 200), np.array([[1.0]]), BOX1)


def _int_matrix(draw, rows, cols, zero_rows=False, zero_cols=False):
    # small integers keep every score exact, so a tie in the argmax is a true tie
    M = np.array(draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                               max_size=rows * cols)), dtype=float).reshape(rows, cols)
    if zero_rows:
        M[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0.0
    if zero_cols:
        M[:, draw(st.lists(st.booleans(), min_size=cols, max_size=cols))] = 0.0
    return M


@st.composite
def _box_scores(draw):
    n, m, N = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 16))
    lo = draw(st.lists(st.integers(-3, 2), min_size=m, max_size=m))
    hi = [a + draw(st.integers(1, 3)) for a in lo]
    return (box_polytope(lo, hi), _int_matrix(draw, N, n, zero_rows=True),
            _int_matrix(draw, n, m, zero_cols=True))


@settings(max_examples=300, deadline=None)
@given(_box_scores())
def test_box_sign_pick_equals_vertex_argmax(problem):
    U, P, B = problem
    assert U.is_box
    sign = _pick(P @ _score_factor(B, U), U)
    assert sign.dtype == np.intp
    assert np.array_equal(sign, np.argmax(P @ (B @ U.vertices.T), axis=1))


def test_non_box_polytopes_keep_the_vertex_argmax():
    U = vertex_polytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    collapsed = box_polytope([0.0, -1.0], [0.0, 1.0])
    P = np.random.default_rng(4).standard_normal((50, 2))
    B = np.array([[1.0, 0.5], [-0.3, 2.0]])
    for V in (U, collapsed):
        assert not V.is_box
        scores = P @ _score_factor(B, V)
        assert scores.shape == (50, V.num_vertices)
        assert np.array_equal(_pick(scores, V), np.argmax(scores, axis=1))


def _run_sum_growth(P, W, B, U):
    # reference G_d of one matrix: the vertex argmax per step (ties to the
    # lowest index), then (sum of each run's W_k)^T B u_j run by run
    idx = np.argmax(P @ B @ U.vertices.T, axis=1)
    starts = [0] + [k for k in range(1, len(idx)) if idx[k] != idx[k - 1]]
    ends = starts[1:] + [len(idx)]
    return sum(float(W[s:e].sum(axis=0) @ B @ U.vertices[idx[s]])
               for s, e in zip(starts, ends))


@st.composite
def _growth_stacks(draw):
    n, m, N = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 24))
    lo = draw(st.lists(st.integers(-3, 2), min_size=m, max_size=m))
    hi = [a + draw(st.integers(1, 3)) for a in lo]
    U = box_polytope(lo, hi)
    if draw(st.booleans()):
        U = vertex_polytope(draw(st.permutations(U.vertices.tolist())))
    K = draw(st.integers(1, 7))
    stack = np.stack([_int_matrix(draw, n, m, zero_cols=True) for _ in range(K)])
    return (U, _int_matrix(draw, N, n, zero_rows=True), _int_matrix(draw, N, n),
            stack, draw(st.integers(1, 3 * N * U.num_vertices)))


@settings(max_examples=300, deadline=None)
@given(_growth_stacks())
def test_stacked_growth_equals_run_sum_reference(problem):
    # small integers keep every sum exact, so the two orders must agree exactly
    U, P, W, stack, block = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reach, "_GROWTH_BLOCK", block)
        G = _growth(P, W, stack, U)
        single = _growth(P, W, stack[0], U)
        one = _growth(P, W, stack[:1], U)
    assert G.shape == (len(stack),)
    assert np.array_equal(G, [_run_sum_growth(P, W, B, U) for B in stack])
    assert isinstance(single, float) and single == one[0] == G[0]


def _random_problem(seed, zero_in_U=False):
    """System, unit direction, control set and ball drawn from seed; boxes
    and vertex lists (shuffled box corners) alternate."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    T = float(rng.uniform(0.5, 2.0))
    A = rng.standard_normal((n, n))
    A *= float(rng.uniform(0.1, 3.0)) / (T * np.linalg.norm(A, 2))
    shift = 0.0 if zero_in_U else rng.uniform(-1.0, 1.0, m)
    U = box_polytope(shift - rng.uniform(0.0, 1.5, m), shift + rng.uniform(0.1, 1.5, m))
    if seed % 2:
        U = vertex_polytope(rng.permutation(U.vertices))
    sys_ = LinearSystem(A=A, X0=rng.standard_normal(n), T=T, m=m)
    d = rng.standard_normal(n)
    ball = FrobeniusBall(center=rng.standard_normal((n, m)),
                         radius=float(rng.uniform(0.0, 2.0)))
    return sys_, d / np.linalg.norm(d), U, ball


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verify_growth_does_not_depend_on_initial_state(seed):
    sys_, d, U, ball = _random_problem(seed)
    moved = LinearSystem(A=sys_.A, X0=10.0 * sys_.X0 + 1.0, T=sys_.T, m=sys_.m)
    a, b = (verify_optimality(s, U, ball, d, k=30, seed=seed % 1000, steps=300)
            for s in (sys_, moved))
    assert (a.G_star, a.best_sampled_G) == (b.G_star, b.best_sampled_G)
    assert np.array_equal(a.best_sampled_B, b.best_sampled_B)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-4, 4))
def test_stacked_growth_is_positively_homogeneous_in_U(seed, power):
    # scaling U by a power of two scales every score and gain exactly, so
    # the picks and the sums are the same up to that factor, bit for bit
    sys_, d, U, ball = _random_problem(seed)
    alpha = 2.0 ** power
    scaled = vertex_polytope(alpha * U.vertices)
    assert scaled.is_box == U.is_box
    stack = np.stack(sample_ball(ball, 25, seed=seed % 1000))
    P, W = _costate_weights(sys_, d, 300)
    assert np.array_equal(_growth(P, W, stack, scaled), alpha * _growth(P, W, stack, U))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stacked_growth_nonnegative_when_zero_in_U(seed):
    # each step's pick scores >= 0 at the step midpoint because 0 lies in U,
    # and its gain W_k^T B u is the integral of that score over the step, so
    # G_d falls below 0 by at most the midpoint rule's error T h^2/24 max|f''|
    # with f'' = P^T A^2 B u, plus rounding
    sys_, d, U, ball = _random_problem(seed, zero_in_U=True)
    assert U.contains_zero
    steps = 300
    stack = np.stack(sample_ball(ball, 25, seed=seed % 1000))
    P, W = _costate_weights(sys_, d, steps)
    G = _growth(P, W, stack, U)
    norm_A = np.linalg.norm(sys_.A, 2)
    Bu = np.linalg.norm(stack @ U.vertices.T, axis=1).max(axis=1)
    quad = sys_.T * (sys_.T / steps) ** 2 / 24.0 * norm_A ** 2 * np.exp(norm_A * sys_.T)
    scale = np.abs(W).sum(axis=0) @ np.abs(stack) @ np.abs(U.vertices).max(axis=0)
    assert np.all(G >= -(quad * Bu + 1e-12 * scale))


def test_stacked_growth_scores_in_bounded_memory():
    # 1000 samples of 16000 steps: scoring them unblocked would hold
    # (K, N, C) = 1000 x 16000 x C doubles, 256 MB for the box (C = m = 2)
    # and 512 MB for its vertex list (C = 4)
    sys_ = LinearSystem(A=[[-0.5, 1.0], [-1.0, -0.2]], X0=[0.0, 0.0], T=2.0, m=2)
    P, W = _costate_weights(sys_, np.array([1.0, 0.0]), 16000)
    ball = FrobeniusBall(center=np.eye(2), radius=0.5)
    stack = np.stack(sample_ball(ball, 1000, seed=5))
    for U in (BOX2, vertex_polytope(BOX2.vertices[::-1])):
        tracemalloc.start()
        try:
            G = _growth(P, W, stack, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.shape == (1000,) and np.all(np.isfinite(G))
        assert peak <= 4 * 2**20
