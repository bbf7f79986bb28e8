"""Problem data: linear dynamics, control polytopes, admissible matrix balls.

All containers are frozen dataclasses holding read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, GeometryError, NumericError
from .linalg import _count, _finite, _number, as_matrix, as_square, as_vector

BALL_CONTAINS_TOL = 1e-12


def _check_sense(sense: str) -> str:
    if sense not in ("grow", "shrink"):
        raise DomainError(f"sense must be 'grow' or 'shrink', got {sense!r}")
    return sense


@dataclass(frozen=True)
class LinearSystem:
    """Dynamics x' = A x + B u on [0, T] from initial state X0.

    The input matrix B is deliberately not stored here: selecting it is the
    point of the optimizer, so every operation takes B explicitly.  m records
    the input dimension the system expects of B and of the control set.
    """

    A: np.ndarray
    X0: np.ndarray
    T: float
    m: int

    def __post_init__(self):
        A = as_square(self.A, "A")
        X0 = as_vector(self.X0, "X0")
        if X0.shape[0] != A.shape[0]:
            raise DimensionError(f"X0 has length {X0.shape[0]} but A is "
                                 f"{A.shape[0]}x{A.shape[0]}")
        T = _number(self.T, "T")
        if T <= 0.0:
            raise DomainError(f"T must be positive, got {self.T!r}")
        m = _count(self.m, "input dimension m", error=DimensionError)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "X0", X0)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ControlPolytope:
    """Convex control set given by its vertex list (one vertex per row).

    Construct through box_polytope or vertex_polytope, which deduplicate
    vertices and compute contains_zero; the vertex order they establish is
    part of the contract because ties in vertex maximization are broken by
    lowest index.
    """

    m: int
    vertices: np.ndarray
    contains_zero: bool

    def __post_init__(self):
        try:
            V = as_matrix(self.vertices, "vertices")
        except DimensionError as exc:
            # as_matrix chains a cause only when the vertices are not a
            # rectangular array of numbers; an array that converted but holds
            # no entries is an empty set, not a shape fault
            if exc.__cause__ is None and np.size(self.vertices) == 0:
                raise GeometryError("vertex list must not be empty") from None
            raise
        m = _count(self.m, "input dimension m", error=DimensionError)
        if V.shape[1] != m:
            raise DimensionError(f"vertices have {V.shape[1]} coordinates but m = {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "contains_zero", bool(self.contains_zero))

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def is_box(self) -> bool:
        """Whether V is _box_corners(V[0], V[-1]) with V[0] < V[-1] everywhere."""
        V = self.vertices
        return bool(V.shape[0] == 2 ** self.m and np.all(V[0] < V[-1])
                    and np.array_equal(V, _box_corners(V[0], V[-1])))


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 2^m corners of the box [lo, hi] in binary order: row k takes hi_j
    where bit j of k is set, lo_j otherwise."""
    bits = (np.arange(2 ** lo.size)[:, None] >> np.arange(lo.size)) & 1
    return np.where(bits == 1, hi, lo)


def _dedup_rows(V: np.ndarray) -> np.ndarray:
    # exact duplicates only, first occurrence kept so the canonical order survives
    seen: dict[bytes, None] = {}
    keep = []
    for i in range(V.shape[0]):
        key = V[i].tobytes()
        if key not in seen:
            seen[key] = None
            keep.append(i)
    return V[keep]


def box_polytope(lo, hi) -> ControlPolytope:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_m, hi_m] as a vertex polytope.

    Vertices are enumerated by binary counting: bit j of the vertex index
    selects coordinate j+1 low (0) or high (1).  Collapsed coordinates
    (lo_j == hi_j) produce duplicate vertices, which are removed.
    """
    lo_v = as_vector(lo, "lo")
    hi_v = as_vector(hi, "hi")
    if lo_v.shape != hi_v.shape:
        raise DimensionError(f"lo has shape {lo_v.shape} but hi has shape {hi_v.shape}")
    if np.any(lo_v > hi_v):
        raise GeometryError("box bounds inverted: lo must not exceed hi componentwise")
    contains_zero = bool(np.all((lo_v <= 0.0) & (hi_v >= 0.0)))
    return ControlPolytope(m=lo_v.shape[0], vertices=_dedup_rows(_box_corners(lo_v, hi_v)),
                           contains_zero=contains_zero)


def vertex_polytope(vertices) -> ControlPolytope:
    """Polytope from an explicit vertex list, taken as given.

    No convex-hull minimality check is attempted beyond removing exact
    duplicates.  Membership of the origin is decided by linear feasibility
    over convex combinations of the vertices.
    """
    V = as_matrix(vertices, "vertices")
    V = _dedup_rows(V)
    return ControlPolytope(m=V.shape[1], vertices=V,
                           contains_zero=_hull_contains_zero(V))


def _hull_contains_zero(V: np.ndarray) -> bool:
    # feasibility of: lambda >= 0, sum lambda = 1, V^T lambda = 0
    from scipy.optimize import linprog  # here: only vertex lists pay its 0.2 s import
    N, m = V.shape
    A_eq = np.vstack([V.T, np.ones((1, N))])
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    res = linprog(c=np.zeros(N), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * N, method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise NumericError(f"feasibility solve for contains_zero failed: {res.message}")


@dataclass(frozen=True)
class FrobeniusBall:
    """Admissible input matrices: Frobenius-norm ball around a nominal matrix."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = as_matrix(self.center, "ball center")
        radius = _number(self.radius, "ball radius", 0, error=GeometryError)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def n(self) -> int:
        return self.center.shape[0]

    @property
    def m(self) -> int:
        return self.center.shape[1]


def ball_argmax(ball: FrobeniusBall, W, sense: str = "grow") -> np.ndarray:
    """Matrix in the ball extremizing the linear functional <W, B> = trace(W^T B).

    The maximizer ("grow") is center + radius * W / ||W||_F, the minimizer
    ("shrink") flips the sign of the step.  A zero gradient leaves every
    point of the ball equivalent, in which case the center is returned.  A
    gradient norm or a returned matrix that overflows raises NumericError.
    """
    Wm = as_matrix(W, "gradient")
    if Wm.shape != ball.center.shape:
        raise DimensionError(f"gradient has shape {Wm.shape} but the ball is over "
                             f"{ball.center.shape} matrices")
    _check_sense(sense)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = _finite(float(np.linalg.norm(Wm)), "gradient norm")
        if nrm == 0.0:
            out = ball.center.copy()
        else:
            step = (ball.radius / nrm) * np.asarray(Wm)
            out = _finite(ball.center + step if sense == "grow" else ball.center - step,
                          "ball point")
    out.setflags(write=False)
    return out


def ball_contains(ball: FrobeniusBall, M, tol: float = BALL_CONTAINS_TOL) -> bool:
    """Whether M lies in the ball, with tol of slack for round-off."""
    Mm = as_matrix(M, "candidate matrix")
    if Mm.shape != ball.center.shape:
        raise DimensionError(f"candidate has shape {Mm.shape} but the ball is over "
                             f"{ball.center.shape} matrices")
    return bool(np.linalg.norm(Mm - ball.center) <= ball.radius + tol)
