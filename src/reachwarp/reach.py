"""Reachable-set boundary points and the directional growth metric.

For x' = A x + B u the adjoint equation P' = -A^T P with terminal value
P(T) = d decouples from the state and has the closed form
P(t) = e^{A^T (T - t)} d.  Driving the system with the vertex control that
maximizes P(t)^T B u at each instant lands the trajectory on the boundary
of the reachable set, with d the outward normal there.  No two-point
boundary value problem has to be shot: everything reduces to matrix
exponentials.

Discretization: the horizon is split into N equal steps of length h and
step k holds the vertex u_{i_k} chosen from the adjoint at the step
midpoint.  With E = e^{Ah} and Gamma = int_0^h e^{As} ds, both from one
augmented matrix exponential and held, with every other table of the step
grid, by one cached _Grid per (A, T, steps), the exact step map gives

    X_dB = E^N X0 + sum_k E^{N-1-k} Gamma B u_{i_k}.

The end-of-step co-states R_k = (E^T)^{N-1-k} d give the midpoint
co-states P_k = e^{A^T h/2} R_k, which pick i_k = argmax_j P_k^T B u_j
(ties to the lowest index), and the step weights W_k = Gamma^T R_k, which
weigh that vertex's gain: G_d(B) = d . (X_dB - e^{AT} X0) = sum_k W_k^T B u_{i_k}
is linear in B once the vertex sequence is fixed, and X0 drops out.  It is
summed with no state propagated, through one function for every caller and
for a whole stack of matrices at once, as a weighted sum of the products
of B V^T with T = W^T mask, the step weights behind each picked vertex.

All powers of E come from two tables of about sqrt(N) matrices each,
E^{ab + r} = E^{ab} E^r with r < b = ceil(sqrt(N)).  With
j = N-1-k = ab + r, the score P_k^T B u_v = (d^T E^{ab}) (E^r F^T B u_v),
F = e^{A^T h/2}, factors either way round.  G_d keeps d while B varies
(verify scores B* and all its samples in one call), so it caches the d-side
P and W per direction and scores a block of matrices with one product P X.
A sweep keeps B and U while d varies, so it builds the B-side
Q_B = [E^r F^T B V^T]_{r<b} once and scores a block of directions through
their rows d^T E^{ab}.  X_dB, needed only as output, is summed from the
same blocks' 0/1 picks, X_dB = E^N X0 + sum_a E^{ab} sum_r Y_r mask_{ab+r}
with Y_r = E^r Gamma B V^T, so G_d = d . (X_dB - E^N X0) up to rounding.
A sweep keeps nothing else per direction: its supports d . X_dB come from one
batched product per block, and a point's switch times are scored again, from
the sweep's shared tables, only when they are read.
When U is an uncollapsed box in box_polytope's binary order, the argmax is
the bang-bang sign rule: bit j of i_k is [(B^T P_k)_j > 0], an exact zero
giving bit 0 as the tie-break does, so both kernels score B^T P_k (B in
place of B V^T: m columns, not 2^m), a sweep's Y_r is E^r Gamma B diag(hi - lo),
and sum_j E^j Gamma B lo joins E^N X0.  Other polytopes keep the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from math import isqrt

import numpy as np

from .errors import DimensionError, DomainError, GeometryError
from .linalg import (_count, _direction_in, _finite, _number, _unit_rows, as_matrix,
                     mat_exp)
from .model import ControlPolytope, LinearSystem

DEFAULT_STEPS = 2000

DEFAULT_SEED = 42

DEFAULT_QUAD_NODES = 4000

# Cap on the N x k x C vertex scores of a block of k matrices (_growth) or
# directions (_sweep): 2^16 doubles (512 KB per temporary) stay in cache.
_GROWTH_BLOCK = 1 << 16

# A sweep whose bound on |score| lies below this cannot overflow a score, nor
# a sum of a few of them, so it skips the per-block overflow check.
_SCORE_BOUND = 1e300


@dataclass(frozen=True)
class CostatePath:
    """Adjoint trajectory P(t) = e^{A^T (T - t)} d for one terminal direction."""

    A: np.ndarray
    T: float
    d: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """Adjoint value P(t) for t in [0, T]."""
        if not 0.0 <= _number(t, "t") <= self.T:
            raise DomainError(f"t must lie in [0, {self.T}], got {t!r}")
        return mat_exp(self.A.T * (self.T - float(t))) @ self.d


def costate_path(sys: LinearSystem, d) -> CostatePath:
    """Adjoint path for the system with terminal direction d (unit norm)."""
    return CostatePath(A=sys.A, T=sys.T, d=_direction_in(d, sys.n))


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """One boundary point of the reachable set.

    support_value = d . X_dB is the support of the computed reachable point
    in direction d.  switch_times holds (time, vertex_index) entries, one per
    change of the active control vertex including the initial choice at
    t = 0; the vertex active on any integration step is the last entry at or
    before the step start.  It is scored again on each read, from the
    (h, Eh, Q_B, U) _source shared by the points of one sweep, with the
    sweep's own _scores call, so it repeats the sweep's picks bit for bit.
    Points compare by identity, never by their arrays.
    """

    d: np.ndarray
    X_dB: np.ndarray
    support_value: float
    steps: int
    _source: tuple = field(repr=False)

    @property
    def switch_times(self) -> tuple[tuple[float, int], ...]:
        h, Eh, Q, U = self._source
        C = U.m if U.is_box else U.num_vertices
        # row j of the scores is step steps - 1 - j
        picks = _pick(_scores(Eh, Q, self.d[None], C)[0, self.steps - 1::-1], U)
        return tuple((float(k * h), int(j)) for k, j in zip(*_vertex_runs(picks)))


@dataclass(frozen=True)
class GrowthReport:
    """Directional growth metric G_d = d . (X_dB - c0) and its ingredients."""

    G_d: float
    c0: np.ndarray
    X_dB: np.ndarray
    B: np.ndarray


@dataclass(frozen=True, eq=False)
class _Grid:
    """The step grid of one (A, T, steps), built by _grid: h = T / steps,
    E = e^{Ah}, Gam = int_0^h e^{As} ds, the adjoint half step
    F = e^{A^T h/2}, and two-level tables of the powers of E up to E^steps.

    With b = ceil(sqrt(steps)): Er[r] = E^r for r < b and Eab[a] = E^{ab}
    for ab <= steps, so any power is E^{ab + r} = E^{ab} E^r.  The b * len(Eab)
    pairs (a, r) cover every j < steps, and a few j >= steps past it.
    """

    steps: int
    h: float
    E: np.ndarray
    Gam: np.ndarray
    F: np.ndarray
    Er: np.ndarray
    Eab: np.ndarray

    # One cache serves every grid, keyed by d and the grid's identity (eq=False).
    # One command touches one key, and the benchmark's verify workload rotates
    # four.  Each entry holds N x n P and W tables (8 MB at n = 32, N = 16000)
    # and keeps its grid alive; more entries hold memory no command reads again.
    @lru_cache(maxsize=8)
    def costates(self, d_key: bytes):
        """Midpoint co-states P and step weights W of every step for the
        direction d with bytes d_key, as read-only arrays.

        The end-of-step co-state of step k is R_k = (E^T)^j d with
        j = steps - 1 - k.  Writing j = ab + r, R_k^T = (d^T E^{ab}) E^r, so
        the whole backward scan is one product of the rows d^T E^{ab} with
        the power table E^r.  Row k of P is F R_k, row k of W is Gam^T R_k.
        """
        d = np.frombuffer(d_key, dtype=float)
        n = d.shape[0]
        rows = (d @ self.Eab) @ self.Er.transpose(1, 0, 2).reshape(n, -1)
        R = rows.reshape(-1, n)[self.steps - 1::-1]
        P = R @ self.F.T
        W = R @ self.Gam
        P.setflags(write=False)
        W.setflags(write=False)
        return P, W


@lru_cache(maxsize=8)
def _build_grid(a_key: bytes, n: int, T: float, steps: int) -> _Grid:
    """_Grid of one (A, T, steps); NumericError, with no numpy warning, on overflow."""
    A = np.frombuffer(a_key, dtype=float).reshape(n, n)
    h = T / steps
    aug = np.zeros((2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        aug[:n, :n] = A * h
        aug[:n, n:] = np.eye(n) * h
        EG = np.asarray(mat_exp(aug))
        E = EG[:n, :n].copy()
        Gam = EG[:n, n:].copy()
        F = mat_exp(A.T * (h / 2.0))
        b = isqrt(steps - 1) + 1
        Er = np.empty((b, n, n))
        Er[0] = np.eye(n)
        Eab = np.empty((steps // b + 1, n, n))
        Eab[0] = Er[0]
        for r in range(1, b):
            Er[r] = E @ Er[r - 1]
        Eb = E @ Er[b - 1]
        for a in range(1, len(Eab)):
            Eab[a] = Eb @ Eab[a - 1]
    _finite(Er, "power of the step matrix")
    _finite(Eab, "power of the step matrix")
    for M in (E, Gam, Er, Eab):
        M.setflags(write=False)
    return _Grid(steps, h, E, Gam, F, Er, Eab)


def _grid(sys: LinearSystem, steps: int) -> _Grid:
    """The cached _Grid of the system's (A, T) at this step count."""
    return _build_grid(sys.A.tobytes(), sys.n, sys.T, steps)


@lru_cache(maxsize=16)
def _flow(a_key: bytes, n: int, T: float) -> np.ndarray:
    """Drift-only transition e^{AT}, one exponential per (A, T)."""
    return mat_exp(np.frombuffer(a_key, dtype=float).reshape(n, n) * T)


def _vertex_runs(idx: np.ndarray):
    """First step and vertex index of every run of steps holding one vertex,
    given the vertex idx[k] that step k holds."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(idx)) + 1))
    return starts, idx[starts]


def _score_factor(B: np.ndarray, U: ControlPolytope) -> np.ndarray:
    """Right-hand factor of the vertex scores: B for a box, else B V^T."""
    return B if U.is_box else B @ U.vertices.T


def _mask(scores: np.ndarray, U: ControlPolytope) -> np.ndarray:
    """The vertex rule on the last axis of scores as a 0/1 mask: a box's sign
    bits, bit j set when (B^T P)_j > 0 (an exact zero gives 0), else the
    one-hot row of the first argmax, written over scores: a score block is
    megabytes at large step counts, and a second live block of its size
    costs fresh pages on every call (mode="raise" would buffer the output)."""
    if U.is_box:
        return scores > 0.0
    return np.take(np.eye(scores.shape[-1]), np.argmax(scores, axis=-1), axis=0,
                   out=scores, mode="clip")


def _pick(scores: np.ndarray, U: ControlPolytope) -> np.ndarray:
    """Per row of scores, the index of the vertex maximizing P^T B u."""
    mask = _mask(scores.copy(), U)  # the caller's scores stay as they are
    if U.is_box:
        return (mask @ (2.0 ** np.arange(U.m))).astype(np.intp)
    return np.argmax(mask, axis=-1)


def _growth(P: np.ndarray, W: np.ndarray, B: np.ndarray, U: ControlPolytope):
    """G_d = sum_k W_k^T B u_{i_k} of one (n, m) B as a float, or of each
    matrix of a (K, n, m) stack.

    Blocks of at most _GROWTH_BLOCK scores are scored as S = P X, X the
    blocks' _score_factor side by side (C columns each).  Their _mask gives
    T = W^T mask, and G = sum_c coef_c <T_c, X_c> + const: a box's vertex is
    lo + (hi - lo) bits, so coef = hi - lo and const = (sum_k W_k)^T B lo,
    else coef = 1 and const = 0.  P and W come from _Grid.costates.
    """
    Bs = np.reshape(B, (-1, *np.shape(B)[-2:]))
    V, (N, n) = U.vertices, P.shape
    G = np.empty(len(Bs))
    with np.errstate(over="ignore", invalid="ignore"):
        if U.is_box:
            coef, const = V[-1] - V[0], (W.sum(axis=0) @ Bs) @ V[0]
        else:
            coef, const = np.ones(U.num_vertices), 0.0
        C = coef.shape[0]
        block = max(1, _GROWTH_BLOCK // (N * C))
        for s in range(0, len(Bs), block):
            X = _score_factor(Bs[s:s + block], U).transpose(1, 0, 2).reshape(n, -1)
            T = W.T @ _mask((P @ X).reshape(N, -1, C), U).reshape(N, -1)
            G[s:s + block] = (T * X).reshape(n, -1, C).sum(axis=0) @ coef
        G += const
    _finite(G, "growth metric")
    return float(G[0]) if np.ndim(B) == 2 else G


def _check_reach_args(sys: LinearSystem, B, U: ControlPolytope, *directions):
    """Check B (or a ball center) is an (n, m) matrix, U has the system's
    input dimension and each direction is a unit vector of length n; return
    B and the directions as read-only arrays."""
    Bm = as_matrix(B, "B")
    if Bm.shape != (sys.n, sys.m):
        raise DimensionError(f"input matrix has shape {Bm.shape}, expected shape "
                             f"({sys.n}, {sys.m})")
    if U.m != sys.m:
        raise DimensionError(f"control set has dimension {U.m} but the system "
                             f"expects {sys.m}")
    return (Bm, *(_direction_in(d, sys.n) for d in directions))


def _scores(Eh: np.ndarray, Q: np.ndarray, D: np.ndarray, C: int) -> np.ndarray:
    """Vertex scores of the (k, n) directions D, shape (k, rows, C): row
    j = ab + r is (d^T E^{ab}) Q_B[r], from Eh = [E^{ab}]_a side by side.
    Each direction has BLAS calls of its own, so its rows are the same in
    any block, and the same again when one direction is scored alone."""
    rows = (D[:, None] @ Eh).reshape(len(D), -1, Q.shape[0])
    return (rows @ Q).reshape(len(D), -1, C)


def _sweep(sys: LinearSystem, Bm: np.ndarray, U: ControlPolytope, D: np.ndarray,
           steps: int) -> list[BoundaryPoint]:
    """Boundary points of the checked (k, n) directions D, a block at a time:
    _scores from the rows d^T E^{ab} and Q_B, then X_dB from their _mask
    (0 on rows j >= steps) and the Y_r, and the supports
    d . X_dB with one batched product, equal to float(d @ x) bit for bit.
    For a unit d every score is at most n^2 max|E^{ab}| max|Q_B| in size;
    only when that bound is not below _SCORE_BOUND (or is NaN) is each score
    block checked for overflow.  A non-finite point has a non-finite support,
    so one check of the supports after the last block covers both.  The points
    share one (h, Eh, Q_B, U) source, from which switch_times is built on access."""
    n, V, g = sys.n, U.vertices, _grid(sys, steps)
    b, count = g.Er.shape[0], g.Eab.shape[0]
    factor = _score_factor(Bm, U)
    C = factor.shape[1]
    Eh = g.Eab.transpose(1, 0, 2).reshape(n, -1)
    block = max(1, _GROWTH_BLOCK // (b * count * C))
    X, S = np.empty((len(D), n)), np.empty(len(D))
    with np.errstate(over="ignore", invalid="ignore"):
        Q = (g.Er @ (g.F.T @ factor)).transpose(1, 0, 2).reshape(n, -1)
        inputs = g.Gam @ (factor * (V[-1] - V[0]) if U.is_box else factor)
        Y = (g.Er.reshape(-1, n) @ inputs).reshape(b, n, -1)
        Y = Y.transpose(0, 2, 1).reshape(-1, n)
        x_base = g.Eab[steps // b] @ (g.Er[steps % b] @ sys.X0)
        if U.is_box:
            live = (np.arange(b * count) < steps).reshape(count, b)
            lo = (g.Er.reshape(-1, n) @ (g.Gam @ (Bm @ V[0]))).reshape(b, n)
            x_base = x_base + Eh @ (live @ lo).ravel()
        # max|M| as max(M.max(), -M.min()) needs no temporary as large as M
        Emax, Qmax = (np.maximum(M.max(), -M.min()) for M in (g.Eab, Q))
        bounded = bool(n * n * Emax * Qmax < _SCORE_BOUND)
        for s in range(0, len(D), block):
            Db = D[s:s + block]
            scores = _scores(Eh, Q, Db, C)
            if not bounded:
                _finite(scores.min() + scores.max(), "vertex score")
            mask = _mask(scores, U)
            del scores  # a box's mask is a new array; free the scores before the products
            mask[:, steps:] = 0
            Z = (mask.reshape(len(Db), count, -1) @ Y).reshape(len(Db), 1, -1)
            Xb = X[s:s + block]
            Xb[:] = x_base + (Z @ Eh.T)[:, 0]
            S[s:s + block] = (Db[:, None] @ Xb[:, :, None])[:, 0, 0]
    _finite(S, "support d . X_dB")
    X.setflags(write=False)
    source = (g.h, Eh, Q, U)
    return [BoundaryPoint(d, x, s, steps, source) for d, x, s in zip(D, X, S.tolist())]


def boundary_point(sys: LinearSystem, B, U: ControlPolytope, d,
                   steps: int = DEFAULT_STEPS) -> BoundaryPoint:
    """Boundary point of the reachable set in direction d under input matrix B.

    Integrates x' = A x + B u from X0 over [0, T] in `steps` equal steps,
    holding on each step the vertex of U that maximizes P^T B u for the
    adjoint P evaluated at the step midpoint.  The step map itself is the
    exact constant-input flow, so all discretization error comes from
    switch times being resolved only to step resolution.
    """
    Bm, dv = _check_reach_args(sys, B, U, d)
    return _sweep(sys, Bm, U, dv[None], _count(steps, "steps"))[0]


def zero_input_endpoint(sys: LinearSystem) -> np.ndarray:
    """Endpoint e^{AT} X0 of the drift-only trajectory (u = 0); raises
    NumericError, with no numpy warning, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_flow(sys.A.tobytes(), sys.n, sys.T) @ sys.X0, "drift endpoint")


def growth_metric(sys: LinearSystem, B, U: ControlPolytope, d,
                  steps: int = DEFAULT_STEPS) -> GrowthReport:
    """Directional growth metric G_d(B) = d . (X_dB - c0).

    Positive values mean the controls push the reachable set past the
    drift-only endpoint c0 along d; for control sets containing 0 the
    metric is nonnegative by construction.  G_d is the co-state weighted
    sum of the module docstring; X_dB and c0 are reported alongside it.
    """
    Bm, dv = _check_reach_args(sys, B, U, d)
    steps = _count(steps, "steps")
    # keep only X_dB: the point would hold its sweep's tables through _growth
    X = boundary_point(sys, Bm, U, dv, steps).X_dB
    c0 = zero_input_endpoint(sys)
    G = _growth(*_grid(sys, steps).costates(dv.tobytes()), Bm, U)
    return GrowthReport(G_d=G, c0=c0, X_dB=X, B=Bm)


def boundary_sweep(sys: LinearSystem, B, U: ControlPolytope, directions,
                   steps: int = DEFAULT_STEPS) -> list[BoundaryPoint]:
    """Boundary points for a list of directions, in the order given."""
    D = _unit_rows(directions, sys.n)
    if D is None:
        Bm, *dirs = _check_reach_args(sys, B, U, *directions)
        D = np.reshape(dirs, (len(dirs), sys.n))
        D.setflags(write=False)
    else:
        Bm, = _check_reach_args(sys, B, U)
    if not len(D):
        raise GeometryError("boundary_sweep needs at least one direction")
    return _sweep(sys, Bm, U, D, _count(steps, "steps"))


def direction_fan(n: int, M: int, seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """M unit directions in R^n, deterministic for given (n, M, seed).

    n = 2 uses equally spaced angles starting at 0; n = 3 uses a Fibonacci
    sphere; higher dimensions draw seeded Gaussian vectors and normalize.
    n = 1 has only two unit directions, so at most M = 2 is allowed there.
    Only n > 3 reads the seed.  Each call returns a new list of read-only
    arrays, which calls with the same fan share.
    """
    n = _count(n, "dimension n", error=DimensionError)
    M = _count(M, "direction count M")
    seed = _count(seed, "seed", minimum=0)
    if n == 1 and M > 2:
        raise DomainError("only 2 distinct unit directions exist in 1-D")
    return list(_fan(n, M, seed if n > 3 else 0))


# A boundary command sweeps one fan, twice with --B optimized, and a caller
# checking its CSV asks for the fan again; a few problems' fans stay alive.
@lru_cache(maxsize=8)
def _fan(n: int, M: int, seed: int) -> tuple[np.ndarray, ...]:
    """The directions of direction_fan for checked arguments, read-only."""
    if n == 1:
        fan = [np.array([1.0]), np.array([-1.0])][:M]
    elif n == 2:
        angles = 2.0 * np.pi * np.arange(M) / M
        fan = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    elif n == 3:
        golden = np.pi * (3.0 - np.sqrt(5.0))
        fan = []
        for k in range(M):
            z = 1.0 - 2.0 * (k + 0.5) / M
            r = np.sqrt(max(0.0, 1.0 - z * z))
            fan.append(np.array([r * np.cos(golden * k), r * np.sin(golden * k), z]))
    else:
        rng = np.random.default_rng(seed)
        fan = []
        while len(fan) < M:
            v = rng.standard_normal(n)
            nrm = np.linalg.norm(v)
            if nrm > 0.0:
                fan.append(v / nrm)
    out = []
    for v in fan:
        u = v / np.linalg.norm(v)
        u.setflags(write=False)
        out.append(u)
    return tuple(out)


@lru_cache(maxsize=1)
def _node_table(a_key: bytes, n: int, T: float, quad_nodes: int):
    """Node spacing delta of support_oracle and the powers e^{A i delta},
    i = ab + r, as Er[r] side by side, shape (n, b n), and Eab[a], built here
    and not by _grid, so the oracle shares only mat_exp with the kernel."""
    delta = T / (2 * quad_nodes)
    E = mat_exp(np.frombuffer(a_key, dtype=float).reshape(n, n) * delta)
    b = isqrt(2 * quad_nodes) + 1
    with np.errstate(over="ignore", invalid="ignore"):  # support_oracle checks
        Er = list(accumulate(repeat(E, b - 1), np.matmul, initial=np.eye(n)))
        Eab = list(accumulate(repeat(Er[-1] @ E, 2 * quad_nodes // b), np.matmul,
                              initial=np.eye(n)))
    return delta, np.hstack(Er), np.array(Eab)


def support_oracle(sys: LinearSystem, B, U: ControlPolytope, d,
                   quad_nodes: int = DEFAULT_QUAD_NODES) -> float:
    """Support of the reachable set in direction d by direct quadrature.

    Independent cross-check for boundary_point: the support equals
    d . e^{AT} X0 + int_0^T max_i  d^T e^{A(T-t)} B u_i  dt, evaluated here
    with composite Simpson quadrature over quad_nodes panels.  Row i of W is
    the adjoint d^T e^{A i delta} at t = T - i delta, one product of the rows
    d^T E^{ab} with the problem's cached _node_table, and the integrand is
    the max over vertices of (BV)^T W^T; Simpson's weights are symmetric, so
    the node order is immaterial.  No switched trajectory is integrated, so
    the two routes share only the matrix exponential.  A non-finite table or
    integrand raises NumericError.
    """
    Bm, dv = _check_reach_args(sys, B, U, d)
    quad_nodes = _count(quad_nodes, "quad_nodes", minimum=2)
    delta, Er, Eab = _node_table(sys.A.tobytes(), sys.n, sys.T, quad_nodes)
    npts = 2 * quad_nodes + 1
    weights = np.ones(npts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        drift = float(dv @ zero_input_endpoint(sys))
        W = ((dv @ Eab) @ Er).reshape(-1, sys.n)[:npts]
        phi = np.max((Bm @ U.vertices.T).T @ W.T, axis=0)
        support = drift + float(delta / 3.0 * (weights @ phi))
    # a non-finite table entry or score makes phi, and so the support, non-finite
    return _finite(support, "quadrature support")
