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
augmented matrix exponential cached per (A, h), the exact step map gives

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
E^{ab + r} = E^{ab} E^r with r < b = ceil(sqrt(N)).  X_dB, needed only as
output, is advanced run by run with E^L and S_L = sum_{i<L} E^i from them,
which keeps G_d equal to d . (X_dB - E^N X0) up to rounding.  With
j = N-1-k = ab + r, the score P_k^T B u_v = (d^T E^{ab}) (E^r F^T B u_v),
F = e^{A^T h/2}, factors either way round.  G_d keeps d while B varies
(verify scores B* and all its samples in one call), so it caches the d-side
P and W per direction and scores a block of matrices with one product P X.
Boundary points keep B and U while d varies (a sweep is a fan of
directions), so each call builds the B-side Q_B = [E^r F^T B V^T]_{r<b}
once and scores a direction with one product of its rows d^T E^{ab}.
When U is an uncollapsed box in box_polytope's binary order, the argmax is
the bang-bang sign rule: bit j of i_k is [(B^T P_k)_j > 0], an exact zero
giving bit 0 as the tie-break does, so both kernels score B^T P_k (B in
place of B V^T: m columns, not 2^m).  Other polytopes keep the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DimensionError, DomainError, GeometryError, NumericError
from .linalg import _direction_in, as_matrix, mat_exp
from .model import ControlPolytope, LinearSystem, _count

DEFAULT_STEPS = 2000

DEFAULT_SEED = 42

DEFAULT_QUAD_NODES = 4000

_SCAN_BLOCK = 64

# Cap on the N x k x C vertex scores of one block of k matrices in _growth: 2^16
# doubles (512 KB per temporary) stay in cache, whatever the stack's size.
_GROWTH_BLOCK = 1 << 16


@dataclass(frozen=True)
class CostatePath:
    """Adjoint trajectory P(t) = e^{A^T (T - t)} d for one terminal direction."""

    A: np.ndarray
    T: float
    d: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """Adjoint value P(t) for t in [0, T]."""
        t = float(t)
        if not 0.0 <= t <= self.T:
            raise DomainError(f"t must lie in [0, {self.T}], got {t}")
        return mat_exp(self.A.T * (self.T - t)) @ self.d


def costate_path(sys: LinearSystem, d) -> CostatePath:
    """Adjoint path for the system with terminal direction d (unit norm)."""
    return CostatePath(A=sys.A, T=sys.T, d=_direction_in(d, sys.n))


@dataclass(frozen=True)
class BoundaryPoint:
    """One boundary point of the reachable set.

    switch_times holds (time, vertex_index) entries, one per change of the
    active control vertex including the initial choice at t = 0; the vertex
    active on any integration step is the last entry at or before the step
    start.  support_value = d . X_dB is the support of the computed
    reachable point in direction d.
    """

    d: np.ndarray
    X_dB: np.ndarray
    support_value: float
    switch_times: tuple[tuple[float, int], ...]
    steps: int


@dataclass(frozen=True)
class GrowthReport:
    """Directional growth metric G_d = d . (X_dB - c0) and its ingredients."""

    G_d: float
    c0: np.ndarray
    X_dB: np.ndarray
    B: np.ndarray


@lru_cache(maxsize=64)
def _step_matrices(a_key: bytes, n: int, h: float):
    """Per-(A, h) step data: e^{Ah}, Gamma(h) = int_0^h e^{As} ds, and the
    adjoint half step e^{A^T h/2}."""
    A = np.frombuffer(a_key, dtype=float).reshape(n, n)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A * h
    aug[:n, n:] = np.eye(n) * h
    EG = np.asarray(mat_exp(aug))
    E = EG[:n, :n].copy()
    Gam = EG[:n, n:].copy()
    Fh = np.asarray(mat_exp(A.T * (h / 2.0))).copy()
    for M in (E, Gam, Fh):
        M.setflags(write=False)
    return E, Gam, Fh


@lru_cache(maxsize=16)
def _flow(a_key: bytes, n: int, T: float) -> np.ndarray:
    """Drift-only transition e^{AT}, one exponential per (A, T)."""
    return mat_exp(np.frombuffer(a_key, dtype=float).reshape(n, n) * T)


def _power_block(steps: int) -> int:
    """Block length b = ceil(sqrt(steps)) of the two-level power tables."""
    return isqrt(steps - 1) + 1


@lru_cache(maxsize=8)
def _power_tables(a_key: bytes, n: int, h: float, steps: int):
    """Two-level tables of the powers of E = e^{Ah} up to E^steps.

    With b = _power_block(steps): E^r and S_r for r < b, and E^{ab} and
    S_{ab} for ab <= steps, where S_L = sum_{i<L} E^i.  Any power is then
    E^{ab + r} = E^{ab} E^r, and a run of L = ab + r equal steps with step
    input c maps x to E^{ab} (E^r x + S_r c) + S_{ab} c = E^L x + S_L c.
    Raises NumericError, with no numpy warning, when a table overflows.
    """
    E, _, _ = _step_matrices(a_key, n, h)
    b = _power_block(steps)
    eye = np.eye(n)
    Er = np.empty((b, n, n))
    Sr = np.empty((b, n, n))
    Er[0] = eye
    Sr[0] = 0.0
    count = steps // b + 1
    Eab = np.empty((count, n, n))
    Sab = np.empty((count, n, n))
    Eab[0] = eye
    Sab[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, b):
            Er[r] = E @ Er[r - 1]
            Sr[r] = eye + E @ Sr[r - 1]
        Eb = E @ Er[b - 1]
        Sb = eye + E @ Sr[b - 1]
        for a in range(1, count):
            Eab[a] = Eb @ Eab[a - 1]
            Sab[a] = Sab[a - 1] + Eab[a - 1] @ Sb
    for M in (Er, Sr, Eab, Sab):
        if not np.all(np.isfinite(M)):
            raise NumericError("powers of the step matrix overflow; the dynamics "
                               "overflow the horizon")
        M.setflags(write=False)
    return Er, Sr, Eab, Sab


# One command touches one (A, d, T, steps) key, and the benchmark's verify
# workload rotates four.  Each entry holds N x n P and W tables (8 MB at
# n = 32, N = 16000); more entries hold memory no command reads again.
@lru_cache(maxsize=8)
def _costate_tables(a_key: bytes, n: int, d_key: bytes, T: float, steps: int):
    """Midpoint co-states P and step weights W of every step.

    The end-of-step co-state of step k is R_k = (E^T)^j d with
    j = steps - 1 - k.  Writing j = ab + r, R_k^T = (d^T E^{ab}) E^r, so the
    whole backward scan is one product of the rows d^T E^{ab} with the
    power table E^r.  Row k of P is e^{A^T h/2} R_k, row k of W is
    Gamma^T R_k.
    """
    d = np.frombuffer(d_key, dtype=float)
    h = T / steps
    _, Gam, Fh = _step_matrices(a_key, n, h)
    Er, _, Eab, _ = _power_tables(a_key, n, h, steps)
    b = Er.shape[0]
    rows = (d @ Eab) @ Er.transpose(1, 0, 2).reshape(n, b * n)
    R = rows.reshape(-1, n)[steps - 1::-1]
    P = R @ Fh.T
    W = R @ Gam
    P.setflags(write=False)
    W.setflags(write=False)
    return P, W


def _vertex_runs(idx: np.ndarray):
    """First step and vertex index of every run of steps holding one vertex,
    given the vertex idx[k] that step k holds."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(idx)) + 1))
    return starts, idx[starts]


def _score_factor(B: np.ndarray, U: ControlPolytope) -> np.ndarray:
    """Right-hand factor of the vertex scores: B for a box, else B V^T."""
    return B if U.is_box else B @ U.vertices.T


def _select(scores: np.ndarray, U: ControlPolytope) -> np.ndarray:
    """The vertex rule on the last axis of scores: a box's sign bits, bit j
    set when (B^T P)_j > 0 (an exact zero gives 0), else the first argmax."""
    return scores > 0.0 if U.is_box else np.argmax(scores, axis=-1)


def _pick(scores: np.ndarray, U: ControlPolytope) -> np.ndarray:
    """Per row of scores, the index of the vertex maximizing P^T B u."""
    sel = _select(scores, U)
    return (sel @ (2.0 ** np.arange(U.m))).astype(np.intp) if U.is_box else sel


def _growth(P: np.ndarray, W: np.ndarray, B: np.ndarray, U: ControlPolytope):
    """G_d = sum_k W_k^T B u_{i_k} of one (n, m) B as a float, or of each
    matrix of a (K, n, m) stack.

    Blocks of at most _GROWTH_BLOCK scores are scored as S = P X, X the
    blocks' _score_factor side by side (C columns each).  The mask of what
    _select picks (a box's sign bits, else the one-hot vertex) gives
    T = W^T mask, and G = sum_c coef_c <T_c, X_c> + const: a box's vertex is
    lo + (hi - lo) bits, so coef = hi - lo and const = (sum_k W_k)^T B lo,
    else coef = 1 and const = 0.  P and W come from _costate_tables.
    """
    Bs = np.reshape(B, (-1, *np.shape(B)[-2:]))
    V, (N, n) = U.vertices, P.shape
    if U.is_box:
        coef, const = V[-1] - V[0], (W.sum(axis=0) @ Bs) @ V[0]
    else:
        coef, const = np.ones(U.num_vertices), 0.0
    C = coef.shape[0]
    block = max(1, _GROWTH_BLOCK // (N * C))
    G = np.empty(len(Bs))
    for s in range(0, len(Bs), block):
        X = _score_factor(Bs[s:s + block], U).transpose(1, 0, 2).reshape(n, -1)
        sel = _select((P @ X).reshape(N, -1, C), U)
        mask = sel if U.is_box else np.take(np.eye(C), sel, axis=0)
        T = W.T @ mask.reshape(N, -1)
        G[s:s + block] = (T * X).reshape(n, -1, C).sum(axis=0) @ coef
    G += const
    if not np.all(np.isfinite(G)):
        raise NumericError("growth metric is non-finite; the dynamics overflow "
                           "the horizon")
    return float(G[0]) if np.ndim(B) == 2 else G


def _costate_weights(sys: LinearSystem, d: np.ndarray, steps: int):
    """(P, W) tables of _costate_tables for a validated unit direction d."""
    return _costate_tables(sys.A.tobytes(), sys.n, d.tobytes(), sys.T, steps)


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


def _sweep(sys: LinearSystem, Bm: np.ndarray, U: ControlPolytope, directions,
           steps: int) -> list[BoundaryPoint]:
    """Boundary points of checked directions through the B-side table Q_B;
    each direction's vertex picks come in j order, reversed into step order."""
    n, V = sys.n, U.vertices
    h = sys.T / steps
    a_key = sys.A.tobytes()
    _, Gam, Fh = _step_matrices(a_key, n, h)
    Er, Sr, Eab, Sab = _power_tables(a_key, n, h, steps)
    b = Er.shape[0]
    factor = _score_factor(Bm, U)
    Q = (Er @ (Fh.T @ factor)).transpose(1, 0, 2).reshape(n, -1)
    points = []
    for d in directions:
        scores = ((d @ Eab) @ Q).reshape(-1, factor.shape[1])[:steps]
        starts, vertex = _vertex_runs(_pick(scores, U)[::-1])
        inputs = (Gam @ (Bm @ V[vertex].T)).T
        lengths = np.diff(np.append(starts, steps))
        x = np.array(sys.X0, dtype=float)
        for L, c in zip(lengths, inputs):
            a, r = divmod(int(L), b)
            x = Eab[a] @ (Er[r] @ x + Sr[r] @ c) + Sab[a] @ c
        if not np.all(np.isfinite(x)):
            raise NumericError("propagated state is non-finite; the dynamics overflow "
                               "the horizon")
        x.setflags(write=False)
        switches = tuple((float(s * h), int(j)) for s, j in zip(starts, vertex))
        points.append(BoundaryPoint(d=d, X_dB=x, support_value=float(d @ x),
                                    switch_times=switches, steps=steps))
    return points


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
    return _sweep(sys, Bm, U, [dv], _count(steps, "steps"))[0]


def zero_input_endpoint(sys: LinearSystem) -> np.ndarray:
    """Endpoint e^{AT} X0 of the drift-only trajectory (u = 0)."""
    return _flow(sys.A.tobytes(), sys.n, sys.T) @ sys.X0


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
    bp = boundary_point(sys, Bm, U, dv, steps)
    c0 = zero_input_endpoint(sys)
    if not np.all(np.isfinite(c0)):
        raise NumericError("drift endpoint is non-finite; the dynamics overflow "
                           "the horizon")
    G = _growth(*_costate_weights(sys, dv, steps), Bm, U)
    return GrowthReport(G_d=G, c0=c0, X_dB=bp.X_dB, B=Bm)


def boundary_sweep(sys: LinearSystem, B, U: ControlPolytope, directions,
                   steps: int = DEFAULT_STEPS) -> list[BoundaryPoint]:
    """Boundary points for a list of directions, in the order given."""
    Bm, *dirs = _check_reach_args(sys, B, U, *directions)
    if not dirs:
        raise GeometryError("boundary_sweep needs at least one direction")
    return _sweep(sys, Bm, U, dirs, _count(steps, "steps"))


def direction_fan(n: int, M: int, seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """M unit directions in R^n, deterministic for given (n, M, seed).

    n = 2 uses equally spaced angles starting at 0; n = 3 uses a Fibonacci
    sphere; higher dimensions draw seeded Gaussian vectors and normalize.
    n = 1 has only two unit directions, so at most M = 2 is allowed there.
    """
    n = _count(n, "dimension n", error=DimensionError)
    M = _count(M, "direction count M")
    seed = _count(seed, "seed", minimum=0)
    if n == 1:
        if M > 2:
            raise DomainError("only 2 distinct unit directions exist in 1-D")
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
    return out


def support_oracle(sys: LinearSystem, B, U: ControlPolytope, d,
                   quad_nodes: int = DEFAULT_QUAD_NODES) -> float:
    """Support of the reachable set in direction d by direct quadrature.

    Independent cross-check for boundary_point: the support equals
    d . e^{AT} X0 + int_0^T max_i  d^T e^{A(T-t)} B u_i  dt, evaluated here
    with composite Simpson quadrature over quad_nodes panels.  No switched
    trajectory is integrated, so the two routes share only the matrix
    exponential.
    """
    Bm, dv = _check_reach_args(sys, B, U, d)
    quad_nodes = _count(quad_nodes, "quad_nodes", minimum=2)
    npts = 2 * quad_nodes + 1
    delta = sys.T / (npts - 1)
    AT = sys.A.T
    step_fwd = np.asarray(mat_exp(-AT * delta))
    BV = Bm @ U.vertices.T
    # adjoint weights at all quadrature nodes: w[j+1] = step_fwd w[j],
    # advanced block-at-a-time
    W = np.empty((npts, sys.n))
    W[0] = np.asarray(mat_exp(AT * sys.T)) @ dv
    block = min(_SCAN_BLOCK, npts - 1)
    for j in range(block):
        W[j + 1] = step_fwd @ W[j]
    if npts - 1 > block:
        Gb_T = np.linalg.matrix_power(step_fwd, block).T
        hi = block + 1
        while hi < npts:
            L = min(block, npts - hi)
            W[hi:hi + L] = W[hi - block:hi - block + L] @ Gb_T
            hi += L
    phi = np.max(W @ BV, axis=1)
    weights = np.ones(npts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = float(delta / 3.0 * (weights @ phi))
    drift = float(dv @ zero_input_endpoint(sys))
    return drift + integral
