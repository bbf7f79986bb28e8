"""Sampled falsification of the selected input matrix."""

import numpy as np
import pytest

from reachwarp import (DomainError, FrobeniusBall, LinearSystem, NumericError,
                       ball_contains, box_polytope, optimize_B, parse_config,
                       sample_ball, verify_optimality)
from reachwarp.fixtures import fixture_config, fixture_names

SCALAR_SYS = LinearSystem(A=[[-1.0]], X0=[0.0], T=1.0, m=1)

SCALAR_BOX = box_polytope([-1.0], [1.0])

SCALAR_BALL = FrobeniusBall(center=[[1.0]], radius=0.5)

DIAG3_SYS = LinearSystem(A=np.diag([-1.0, -0.5, -0.25]), X0=[0.0, 0.0, 0.0],
                         T=2.0, m=2)

DIAG3_BOX = box_polytope([-1.0, -1.0], [1.0, 1.0])

DIAG3_BALL = FrobeniusBall(center=[[1.0, 0.2], [0.0, 1.0], [0.3, -0.4]], radius=0.5)

E1 = np.array([1.0, 0.0, 0.0])


def test_sample_ball_membership_and_determinism():
    ball = FrobeniusBall(center=np.array([[1.0, -2.0], [0.5, 0.0]]), radius=0.8)
    first = sample_ball(ball, 50, seed=3)
    second = sample_ball(ball, 50, seed=3)
    assert len(first) == 50
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
        assert ball_contains(ball, a)
    other = sample_ball(ball, 50, seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


def test_sample_ball_radius_zero_returns_center():
    ball = FrobeniusBall(center=[[2.0]], radius=0.0)
    for M in sample_ball(ball, 5, seed=1):
        assert np.array_equal(M, ball.center)


def test_sample_ball_fills_the_ball():
    ball = FrobeniusBall(center=np.zeros((2, 2)), radius=0.5)
    distances = [float(np.linalg.norm(M)) for M in sample_ball(ball, 10_000, seed=42)]
    assert 0.49 <= max(distances) <= 0.5
    assert min(distances) < 0.25


def test_sample_ball_rejects_nonpositive_count():
    with pytest.raises(DomainError):
        sample_ball(SCALAR_BALL, 0)


@pytest.mark.filterwarnings("error")
def test_sample_ball_overflow_raises_numeric_error():
    ball = FrobeniusBall(center=[[1.7e308, 0.0]], radius=1e308)
    with pytest.raises(NumericError):
        sample_ball(ball, 50, seed=0)


@pytest.mark.filterwarnings("error")
def test_growth_overflow_raises_numeric_error_without_warning():
    # B* of a unit ball scores finitely; samples near 1.7e308 overflow G_d
    sys_ = LinearSystem(A=np.zeros((2, 2)), X0=[1.5e308, 1.5e308], T=1.0, m=1)
    result = optimize_B(sys_, SCALAR_BOX, FrobeniusBall([[1.0], [0.0]], 0.1), [1.0, 0.0],
                        steps=50)
    huge = FrobeniusBall([[1.7e308], [1.7e308]], 0.1)
    with pytest.raises(NumericError):
        verify_optimality(sys_, SCALAR_BOX, huge, [1.0, 0.0], k=5, steps=50, result=result)


def test_verify_scalar_grow_passes():
    verdict = verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                                sense="grow", k=1000, seed=42)
    assert verdict.passed
    assert verdict.samples == 1000
    assert verdict.margin >= -1e-9
    assert abs(verdict.G_star - 1.5 * (1.0 - np.exp(-1.0))) <= 1e-9
    assert ball_contains(SCALAR_BALL, verdict.best_sampled_B)
    assert verdict.margin == verdict.G_star - verdict.best_sampled_G


def test_verify_scalar_shrink_passes():
    verdict = verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                                sense="shrink", k=300, seed=42)
    assert verdict.passed
    assert verdict.margin >= -1e-9
    assert verdict.margin == verdict.best_sampled_G - verdict.G_star
    assert abs(verdict.G_star - 0.5 * (1.0 - np.exp(-1.0))) <= 1e-9


def test_verify_theorem_regime_diag3():
    verdict = verify_optimality(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1,
                                sense="grow", k=1000, seed=42)
    assert verdict.passed
    assert verdict.margin > 0.0


def test_verify_pass_unaffected_by_halved_steps():
    verdict = verify_optimality(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1,
                                sense="grow", k=400, seed=42, steps=1000)
    assert verdict.passed


def test_verify_reuses_precomputed_result():
    result = optimize_B(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1, sense="grow")
    with_result = verify_optimality(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1,
                                    sense="grow", k=200, seed=9, result=result)
    without = verify_optimality(DIAG3_SYS, DIAG3_BOX, DIAG3_BALL, E1,
                                sense="grow", k=200, seed=9)
    assert with_result.G_star == without.G_star
    assert with_result.best_sampled_G == without.best_sampled_G
    assert with_result.margin == without.margin
    assert with_result.passed == without.passed


def test_verify_determinism():
    a = verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                          sense="grow", k=150, seed=5)
    b = verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                          sense="grow", k=150, seed=5)
    assert a.best_sampled_G == b.best_sampled_G
    assert a.margin == b.margin
    assert np.array_equal(a.best_sampled_B, b.best_sampled_B)


def test_verify_detects_suboptimal_matrix():
    # feeding the grow-sense result into a shrink-sense check must fail:
    # nearly every sample undercuts the grow optimizer
    grow = optimize_B(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0], sense="grow")
    verdict = verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                                sense="shrink", k=200, seed=42, result=grow)
    assert not verdict.passed
    assert verdict.margin < -1e-3


def test_verify_rejects_negative_tolerance():
    with pytest.raises(DomainError):
        verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                          sense="grow", k=10, tol_verify=-1.0)


def test_verify_rejects_bad_sense_with_precomputed_result():
    grow = optimize_B(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0], sense="grow")
    with pytest.raises(DomainError):
        verify_optimality(SCALAR_SYS, SCALAR_BOX, SCALAR_BALL, [1.0],
                          sense="both", k=10, result=grow)


@pytest.mark.parametrize("name", fixture_names())
def test_g_star_equals_optimized_metric_exactly(name):
    problem = parse_config(fixture_config(name))
    args = (problem.system, problem.control, problem.ball, problem.direction)
    for steps in (problem.steps, 500):
        result = optimize_B(*args, sense=problem.sense, steps=steps)
        verdict = verify_optimality(*args, sense=problem.sense, k=50, seed=1,
                                    steps=steps, result=result)
        assert verdict.G_star == result.G_optimized


def test_sample_ball_is_one_read_only_array():
    ball = FrobeniusBall(center=np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0]]),
                         radius=0.8)
    samples = sample_ball(ball, 40, seed=11)
    assert isinstance(samples, np.ndarray)
    assert samples.shape == (40, 3, 2)
    assert not samples.flags.writeable
    assert np.array_equal(samples, sample_ball(ball, 40, seed=11))
    assert not np.array_equal(samples, sample_ball(ball, 40, seed=12))
    assert all(ball_contains(ball, M) for M in samples)


@pytest.mark.parametrize("zero_rows", [(), (0, 3)])
def test_sample_ball_draws_in_bulk_and_redraws_zero_directions(monkeypatch, zero_rows):
    calls = []

    class Stub:
        """default_rng whose first direction batch has the given rows zeroed."""

        def __init__(self, seed):
            self.rng = real_rng(seed)

        def standard_normal(self, shape):
            draw = self.rng.standard_normal(shape)
            if not calls:
                draw[list(zero_rows)] = 0.0
            calls.append(("standard_normal", shape))
            return draw

        def random(self, size):
            calls.append(("random", size))
            return self.rng.random(size)

    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", Stub)
    ball = FrobeniusBall(center=np.zeros((2, 2)), radius=1.0)
    samples = sample_ball(ball, 5, seed=3)
    expected = [("standard_normal", (5, 4)), ("random", 5)]
    if zero_rows:
        expected.append(("standard_normal", (len(zero_rows), 4)))
    assert calls == expected
    assert np.all(np.isfinite(samples))
    assert np.all(np.linalg.norm(samples, axis=(1, 2)) <= 1.0 + 1e-15)
    assert all(np.any(samples[i] != 0.0) for i in zero_rows)
