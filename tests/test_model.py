"""Domain objects: systems, control polytopes, Frobenius balls."""

import numpy as np
import pytest

from reachwarp import (ControlPolytope, DimensionError, DomainError, FrobeniusBall,
                       GeometryError, LinearSystem, PreconditionError, ball_argmax,
                       ball_contains, box_polytope, unit_direction, vertex_polytope)


def test_unit_direction_accepts_unit_vectors():
    d = unit_direction([1.0, 0.0])
    assert not d.flags.writeable
    assert np.array_equal(d, [1.0, 0.0])


def test_unit_direction_rejects_non_unit():
    with pytest.raises(PreconditionError):
        unit_direction([1.0, 1.0])
    with pytest.raises(DomainError):
        unit_direction([np.nan, 0.0])


def test_linear_system_validation():
    sys_ = LinearSystem(A=[[-1.0, 0.0], [0.0, -2.0]], X0=[1.0, 2.0], T=1.5, m=3)
    assert sys_.n == 2
    assert sys_.m == 3
    assert sys_.T == 1.5
    assert not sys_.A.flags.writeable
    with pytest.raises(DimensionError):
        LinearSystem(A=[[1.0, 2.0]], X0=[0.0], T=1.0, m=1)
    with pytest.raises(DimensionError):
        LinearSystem(A=[[1.0]], X0=[0.0, 0.0], T=1.0, m=1)
    with pytest.raises(DomainError):
        LinearSystem(A=[[1.0]], X0=[0.0], T=0.0, m=1)
    with pytest.raises(DomainError):
        LinearSystem(A=[[1.0]], X0=[0.0], T=-2.0, m=1)
    with pytest.raises(DimensionError):
        LinearSystem(A=[[1.0]], X0=[0.0], T=1.0, m=0)


def test_box_polytope_canonical_order():
    U = box_polytope([-1.0, -1.0], [1.0, 1.0])
    assert U.m == 2
    assert U.num_vertices == 4
    assert U.contains_zero
    expected = [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)]
    assert [tuple(v) for v in U.vertices] == expected


def test_box_polytope_degenerate_box():
    U = box_polytope([0.0, 0.0], [0.0, 0.0])
    assert U.num_vertices == 1
    assert tuple(U.vertices[0]) == (0.0, 0.0)
    assert U.contains_zero


def test_box_polytope_four_inputs():
    U = box_polytope([-0.1] * 4, [0.1] * 4)
    assert U.num_vertices == 16
    assert U.contains_zero
    assert np.all(U.vertices >= -0.1) and np.all(U.vertices <= 0.1)


def test_box_polytope_vertex_count_with_collapsed_coordinates():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        lo = rng.uniform(-1.0, 0.0, size=m)
        hi = rng.uniform(0.0, 1.0, size=m)
        collapse = rng.random(m) < 0.4
        hi = np.where(collapse, lo, hi)
        U = box_polytope(lo, hi)
        k = int(np.sum(lo < hi))
        assert U.num_vertices == 2 ** k
        assert np.all(U.vertices >= lo - 1e-15)
        assert np.all(U.vertices <= hi + 1e-15)


def test_box_polytope_contains_zero_flag():
    assert not box_polytope([0.5], [1.0]).contains_zero
    assert box_polytope([0.0], [1.0]).contains_zero


def test_box_polytope_rejects_inverted_bounds():
    with pytest.raises(GeometryError):
        box_polytope([1.0], [-1.0])


def test_vertex_polytope_dedup_and_zero_membership():
    U = vertex_polytope([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]])
    assert U.num_vertices == 3
    assert U.contains_zero
    shifted = vertex_polytope([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
    assert not shifted.contains_zero


def test_control_polytope_rejects_empty_or_mismatched():
    with pytest.raises(GeometryError):
        ControlPolytope(m=2, vertices=np.empty((0, 2)), contains_zero=False)
    with pytest.raises(DimensionError):
        ControlPolytope(m=3, vertices=np.ones((2, 2)), contains_zero=False)


def test_frobenius_ball_validation():
    ball = FrobeniusBall(center=[[1.0, 0.0], [0.0, 1.0]], radius=0.5)
    assert ball.n == 2 and ball.m == 2
    with pytest.raises(GeometryError):
        FrobeniusBall(center=[[1.0]], radius=-0.1)


def test_ball_argmax_unit_gradient():
    ball = FrobeniusBall(center=np.zeros((2, 2)), radius=1.0)
    W = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ball_argmax(ball, W, "grow"), W, atol=1e-15)


def test_ball_argmax_zero_gradient_returns_center():
    ball = FrobeniusBall(center=[[2.0, 3.0]], radius=1.0)
    out = ball_argmax(ball, np.zeros((1, 2)), "grow")
    assert np.array_equal(out, ball.center)


def test_ball_argmax_scalar_senses():
    ball = FrobeniusBall(center=[[0.0]], radius=0.5)
    W = [[-2.0]]
    grow = ball_argmax(ball, W, "grow")
    shrink = ball_argmax(ball, W, "shrink")
    assert abs(grow[0, 0] - (-0.5)) <= 1e-15
    assert abs(shrink[0, 0] - 0.5) <= 1e-15
    # sampled confirmation that the endpoints extremize W.B over the interval
    rng = np.random.default_rng(5)
    samples = rng.uniform(-0.5, 0.5, size=10_000)
    values = -2.0 * samples
    assert np.all(values <= -2.0 * grow[0, 0] + 1e-12)
    assert np.all(values >= -2.0 * shrink[0, 0] - 1e-12)


def test_ball_argmax_rejects_bad_sense_and_shape():
    ball = FrobeniusBall(center=np.zeros((2, 2)), radius=1.0)
    with pytest.raises(DomainError):
        ball_argmax(ball, np.ones((2, 2)), "both")
    with pytest.raises(DimensionError):
        ball_argmax(ball, np.ones((1, 2)), "grow")


def test_ball_argmax_beats_uniform_samples():
    from reachwarp import sample_ball

    rng = np.random.default_rng(31)
    ball = FrobeniusBall(center=rng.standard_normal((2, 3)), radius=0.7)
    W = rng.standard_normal((2, 3))
    best_grow = float(np.sum(W * ball_argmax(ball, W, "grow")))
    best_shrink = float(np.sum(W * ball_argmax(ball, W, "shrink")))
    for M in sample_ball(ball, 1000, seed=42):
        value = float(np.sum(W * M))
        assert value <= best_grow + 1e-10
        assert value >= best_shrink - 1e-10


def test_ball_argmax_lands_on_boundary():
    rng = np.random.default_rng(37)
    for _ in range(20):
        ball = FrobeniusBall(center=rng.standard_normal((3, 2)), radius=float(rng.uniform(0.1, 2.0)))
        W = rng.standard_normal((3, 2))
        B = ball_argmax(ball, W, "grow")
        assert abs(np.linalg.norm(B - ball.center) - ball.radius) <= 1e-12
        assert ball_contains(ball, B)


def test_ball_contains_boundary_and_outside():
    ball = FrobeniusBall(center=np.zeros((2, 2)), radius=1.0)
    E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert ball_contains(ball, ball.center)
    assert ball_contains(ball, E11)
    assert not ball_contains(ball, 1.01 * E11)
    with pytest.raises(DimensionError):
        ball_contains(ball, np.ones((1, 1)))


def test_box_detection_follows_binary_vertex_order():
    U = box_polytope([-1.0, 0.5, -2.0], [1.0, 2.0, 0.0])
    assert U.is_box and box_polytope([0.5], [1.0]).is_box
    V = U.vertices
    # the same vertices in box_polytope's order qualify whatever built them
    assert vertex_polytope(V).is_box
    assert not vertex_polytope(V[::-1]).is_box
    assert not vertex_polytope(V[[0, 2, 1, 3, 4, 5, 6, 7]]).is_box
    # a collapsed coordinate leaves fewer than 2^m vertices
    assert not box_polytope([0.0, -1.0], [0.0, 1.0]).is_box
    assert not box_polytope([0.0], [0.0]).is_box
    # 2^m vertices with V[0] < V[-1] that are not a box
    assert not vertex_polytope([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [2.0, 2.0]]).is_box
    assert ControlPolytope(m=1, vertices=[[-1.0], [1.0]], contains_zero=True).is_box
    assert not ControlPolytope(m=1, vertices=[[1.0], [-1.0]], contains_zero=True).is_box


def test_box_vertices_equal_per_vertex_enumeration():
    # reference: the per-vertex binary-counting loop, exact duplicates dropped
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        lo = np.where(rng.random(m) < 0.2, -0.0, rng.uniform(-1.0, 0.0, size=m))
        hi = np.where(rng.random(m) < 0.3, lo, rng.uniform(0.0, 1.0, size=m))
        hi[(lo == 0.0) & (rng.random(m) < 0.5)] = 0.0
        rows, seen = [], set()
        for k in range(2 ** m):
            row = np.where([(k >> j) & 1 for j in range(m)], hi, lo)
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                rows.append(row)
        V = box_polytope(lo, hi).vertices
        assert V.dtype == np.float64
        assert V.tobytes() == np.array(rows).tobytes()


def test_box_detection_counts_rows_before_building_corners(monkeypatch):
    from reachwarp import model

    def refuse(lo, hi):
        raise AssertionError("corners built for a vertex count that is not 2^m")

    monkeypatch.setattr(model, "_box_corners", refuse)
    assert not vertex_polytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]]).is_box
    wide = ControlPolytope(m=40, vertices=np.vstack([-np.ones(40), np.ones(40)]),
                           contains_zero=True)
    assert not wide.is_box
