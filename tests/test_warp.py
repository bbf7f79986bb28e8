"""Input-matrix selection over the Frobenius ball and regime diagnostics."""

import numpy as np
import pytest

from reachwarp import (DomainError, FrobeniusBall, LinearSystem, NumericError,
                       ball_contains, box_polytope, check_assumptions,
                       initial_costate, optimize_B, sample_ball)

from conftest import series_exp

ADMIRE_A = [[-0.9967, 0.0, 0.6176],
            [0.0, -0.5057, 0.0],
            [-0.0939, 0.0, -0.2127]]

ADMIRE_B = [[0.0, -4.2423, 4.2423, 1.4871],
            [1.6532, -1.2735, -1.2735, 0.0024],
            [0.0, -0.2805, 0.2805, -0.8820]]

ADMIRE_SYS = LinearSystem(A=ADMIRE_A, X0=[0.0, 0.0, 0.0], T=2.0, m=4)

ADMIRE_BOX = box_polytope([-0.1] * 4, [0.1] * 4)

ADMIRE_BALL = FrobeniusBall(center=ADMIRE_B, radius=0.5)

E1 = np.array([1.0, 0.0, 0.0])

SCALAR_SYS = LinearSystem(A=[[-1.0]], X0=[0.0], T=1.0, m=1)

SCALAR_BOX = box_polytope([-1.0], [1.0])

SCALAR_BALL = FrobeniusBall(center=[[1.0]], radius=0.5)

DIAG3_SYS = LinearSystem(A=np.diag([-1.0, -0.5, -0.25]), X0=[0.0, 0.0, 0.0],
                         T=2.0, m=2)

DIAG3_BOX = box_polytope([-1.0, -1.0], [1.0, 1.0])

DIAG3_BALL = FrobeniusBall(center=[[1.0, 0.2], [0.0, 1.0], [0.3, -0.4]], radius=0.5)


def test_initial_costate_diagonal():
    sys_ = LinearSystem(A=np.diag([-1.0, -2.0]), X0=[0.0, 0.0], T=np.log(2.0), m=1)
    assert np.allclose(initial_costate(sys_, [1.0, 0.0]), [0.5, 0.0], atol=1e-14)


def test_initial_costate_zero_dynamics():
    sys_ = LinearSystem(A=np.zeros((3, 3)), X0=np.zeros(3), T=2.0, m=1)
    d = np.array([0.6, 0.8, 0.0])
    assert np.allclose(initial_costate(sys_, d), d, atol=1e-15)


def test_initial_costate_matches_series_oracle():
    P0 = initial_costate(ADMIRE_SYS, E1)
    expected = series_exp(np.array(ADMIRE_A).T * 2.0) @ E1
    assert np.max(np.abs(P0 - expected)) <= 1e-10


def test_check_assumptions_theorem_regime():
    report = check_assumptions(DIAG3_SYS, E1)
    assert report.assumption1_holds
    assert report.assumption2_holds
    assert report.regime == "theorem"
    assert report.eigvec_mu == -1.0
    assert report.eigvec_residual <= 1e-15


def test_check_assumptions_admire_is_heuristic_real():
    report = check_assumptions(ADMIRE_SYS, E1)
    assert report.assumption1_holds
    assert not report.assumption2_holds
    assert report.regime == "heuristic-real"
    assert abs(report.eigvec_mu - (-0.9967)) <= 1e-12
    assert abs(report.eigvec_residual - 0.6176) <= 1e-12


def test_check_assumptions_oscillator_is_heuristic_complex():
    sys_ = LinearSystem(A=[[0.0, 1.0], [-2.0, -0.8]], X0=[0.0, 0.0], T=2.0, m=2)
    report = check_assumptions(sys_, [1.0, 0.0])
    assert not report.assumption1_holds
    assert report.regime == "heuristic-complex"


def test_optimize_scalar_grow_hand_computed():
    result = optimize_B(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0], sense="grow")
    # candidates by hand: P0 = e^{-1}; u = -1 gives B = 0.5 with value -0.5/e,
    # u = +1 gives B = 1.5 with value 1.5/e
    assert result.i_star == 1
    assert abs(result.B_star[0, 0] - 1.5) <= 1e-12
    assert len(result.candidates) == 2
    e = np.exp(-1.0)
    assert abs(result.candidates[0].B[0, 0] - 0.5) <= 1e-12
    assert abs(result.candidates[0].objective - (-0.5 * e)) <= 1e-12
    assert abs(result.candidates[1].objective - 1.5 * e) <= 1e-12
    assert abs(result.P0[0] - e) <= 1e-12
    assert abs(result.G_nominal - (1.0 - e)) <= 1e-9
    assert abs(result.G_optimized - 1.5 * (1.0 - e)) <= 1e-9
    assert result.report.regime == "theorem"
    assert not result.degenerate


def test_optimize_scalar_shrink_hand_computed():
    result = optimize_B(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0], sense="shrink")
    assert result.i_star == 0
    assert abs(result.B_star[0, 0] - 0.5) <= 1e-12
    assert abs(result.G_optimized - 0.5 * (1.0 - np.exp(-1.0))) <= 1e-9


def test_optimize_diag3_hand_computed_selection():
    # P0 = e^{-2} e1; all vertices share ||u|| so the selection reduces to
    # the largest first-row functional [1, 0.2] . u, giving vertex (1, 1)
    result = optimize_B(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1, sense="grow")
    assert result.i_star == 3
    shift = 0.5 / np.sqrt(2.0)
    expected = np.array(DIAG3_BALL.center, dtype=float)
    expected[0, 0] += shift
    expected[0, 1] += shift
    assert np.max(np.abs(result.B_star - expected)) <= 1e-12
    shrink = optimize_B(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1, sense="shrink")
    assert shrink.i_star == 0
    expected_shrink = np.array(DIAG3_BALL.center, dtype=float)
    expected_shrink[0, 0] -= shift
    expected_shrink[0, 1] -= shift
    assert np.max(np.abs(shrink.B_star - expected_shrink)) <= 1e-12


def test_optimize_radius_zero_keeps_nominal():
    ball = FrobeniusBall(center=[[1.0]], radius=0.0)
    for sense in ("grow", "shrink"):
        result = optimize_B(SCALAR_SYS, SCALAR_BOX, ball, [1.0], sense=sense)
        assert result.B_star[0, 0] == 1.0
        assert result.G_optimized == result.G_nominal


def test_optimize_degenerate_control_set():
    U0 = box_polytope([0.0], [0.0])
    result = optimize_B(SCALAR_SYS, U0, SCALAR_BALL, [1.0], sense="grow")
    assert result.degenerate
    assert result.i_star == 0
    assert np.array_equal(result.B_star, SCALAR_BALL.center)


def test_optimize_rejects_bad_sense():
    with pytest.raises(DomainError):
        optimize_B(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0], sense="both")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A, steps, bound, center", [
    ([[0.5]], 2000, 1.0, [[1.5e308]]),  # P0^T B_i u_i overflows
    ([[700.0]], 50, 1e5, [[1.0]]),  # P0 = e^700 is finite, P0 u_i^T is not
], ids=("objective", "gradient"))
def test_optimize_overflowing_candidate_raises_numeric_error(A, steps, bound, center):
    sys_ = LinearSystem(A=A, X0=[0.0], T=1.0, m=1)
    ball = FrobeniusBall(center=center, radius=0.1)
    with pytest.raises(NumericError):
        optimize_B(sys_, box_polytope([-bound], [bound]), ball, [1.0], steps=steps)


def test_candidate_table_structure_and_feasibility():
    result = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1, sense="grow")
    assert len(result.candidates) == ADMIRE_BOX.num_vertices
    assert [c.index for c in result.candidates] == list(range(16))
    for cand in result.candidates:
        assert ball_contains(ADMIRE_BALL, cand.B)
    assert ball_contains(ADMIRE_BALL, result.B_star)


def test_candidate_objectives_extremal_over_samples():
    result = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1, sense="grow")
    P0 = result.P0
    members = sample_ball(ADMIRE_BALL, 500, seed=77)
    for cand in result.candidates:
        u = ADMIRE_BOX.vertices[cand.index]
        sampled = [float(P0 @ M @ u) for M in members]
        assert max(sampled) <= cand.objective + 1e-10


def test_selection_extremality_and_sense_symmetry():
    grow = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1, sense="grow")
    shrink = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1, sense="shrink")
    objectives = [c.objective for c in grow.candidates]
    assert grow.candidates[grow.i_star].objective == max(objectives)
    assert shrink.candidates[shrink.i_star].objective == min(objectives)
    assert shrink.i_star == int(np.argmin(objectives))
    assert [c.objective for c in shrink.candidates] == objectives


def test_monotone_improvement_both_senses():
    cases = [
        (DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1),
        (ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1),
    ]
    for sys_, U, ball, d in cases:
        grow = optimize_B(sys_, U, ball, d, sense="grow")
        shrink = optimize_B(sys_, U, ball, d, sense="shrink")
        assert grow.G_optimized >= grow.G_nominal - 1e-9
        assert shrink.G_optimized <= shrink.G_nominal + 1e-9


def test_admire_regression_values():
    # pinned outputs; the support values behind them are cross-checked against
    # the quadrature oracle in the acceptance tests
    grow = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1, sense="grow")
    shrink = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, E1, sense="shrink")
    assert abs(grow.G_nominal - 0.8303024241681696) <= 1e-9
    assert abs(grow.G_optimized - 0.8849308590917804) <= 1e-9
    assert abs(shrink.G_optimized - 0.8205696887636740) <= 1e-9
    assert grow.i_star == 4
    assert shrink.i_star == 10
    assert grow.report.regime == "heuristic-real"


def test_mixed_direction_regression():
    d = np.array([0.3536, 0.6124, 0.7071])
    d /= np.linalg.norm(d)
    report = check_assumptions(ADMIRE_SYS, d)
    assert report.regime == "heuristic-real"
    assert abs(report.eigvec_residual - 0.438208481339754) <= 1e-9
    grow = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, d, sense="grow")
    shrink = optimize_B(ADMIRE_SYS, ADMIRE_BOX, ADMIRE_BALL, d, sense="shrink")
    assert shrink.G_optimized <= grow.G_nominal <= grow.G_optimized


def test_oscillator_regression_values():
    sys_ = LinearSystem(A=[[0.0, 1.0], [-2.0, -0.8]], X0=[0.0, 0.0], T=2.0, m=2)
    U = box_polytope([-1.0, -1.0], [1.0, 1.0])
    ball = FrobeniusBall(center=[[0.0, 1.0], [1.0, 0.0]], radius=0.5)
    grow = optimize_B(sys_, U, ball, [1.0, 0.0], sense="grow")
    shrink = optimize_B(sys_, U, ball, [1.0, 0.0], sense="shrink")
    assert grow.report.regime == "heuristic-complex"
    assert abs(grow.G_nominal - 1.6154330097217346) <= 1e-9
    assert abs(grow.G_optimized - 1.8486224774412925) <= 1e-9
    assert abs(shrink.G_optimized - 1.4893302465398957) <= 1e-9
    assert shrink.G_optimized <= grow.G_nominal <= grow.G_optimized
