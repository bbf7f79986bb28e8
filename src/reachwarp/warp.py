"""Input-matrix selection: grow or shrink the reachable set along a direction.

The selection works on the initial adjoint value P0 = e^{A^T T} d.  For
each vertex u_i of the control set the linear functional B -> P0^T B u_i
is extremized over the admissible Frobenius ball in closed form, and the
best vertex wins.  When the system matrix has a real spectrum and d is an
eigenvector of A^T, the adjoint stays collinear with d for all time and
the selected matrix is globally optimal over the ball; outside that regime
the same computation runs unchanged and is reported as a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_IMAG_TOL, SpectrumReport, _tolerance, eigvec_residual, spectrum
from .linalg import mat_exp  # noqa: F401 - bench/test_bench.py reads warp.mat_exp
from .model import ControlPolytope, FrobeniusBall, LinearSystem, _check_sense, ball_argmax
from .reach import DEFAULT_STEPS, _check_reach_args, costate_path, growth_metric

DEFAULT_EIGVEC_TOL = 1e-8

REGIME_THEOREM = "theorem"
REGIME_HEURISTIC_REAL = "heuristic-real"
REGIME_HEURISTIC_COMPLEX = "heuristic-complex"


@dataclass(frozen=True)
class AssumptionReport:
    """Whether the closed-form optimality argument applies to (A, d).

    assumption1: all eigenvalues of A are real (within tol_spec).
    assumption2: d is an eigenvector of A^T (residual within tol_ev).
    regime is "theorem" when both hold, "heuristic-real" when only the
    spectrum is real, and "heuristic-complex" otherwise.
    """

    spectrum: SpectrumReport
    eigvec_mu: float
    eigvec_residual: float
    assumption1_holds: bool
    assumption2_holds: bool
    regime: str


@dataclass(frozen=True)
class Candidate:
    """Per-vertex candidate: the ball maximizer of B -> P0^T B u_i and its objective."""

    index: int
    B: np.ndarray
    objective: float


@dataclass(frozen=True)
class WarpResult:
    """Outcome of the input-matrix selection.

    B_star is the selected matrix, i_star the winning vertex index, and
    candidates the full per-vertex table.  G_nominal and G_optimized are
    the growth metrics of the ball center and of B_star at the same step
    count.  degenerate flags the case where every candidate objective is
    exactly zero (e.g. a control set collapsed to the origin), in which
    case B_star falls back to the ball center.
    """

    B_star: np.ndarray
    i_star: int
    candidates: tuple[Candidate, ...]
    P0: np.ndarray
    G_nominal: float
    G_optimized: float
    report: AssumptionReport
    sense: str
    degenerate: bool


def initial_costate(sys: LinearSystem, d) -> np.ndarray:
    """Initial adjoint value P0 = P(0) = e^{A^T T} d."""
    return costate_path(sys, d).at(0.0)


def check_assumptions(sys: LinearSystem, d, tol_spec: float = DEFAULT_IMAG_TOL,
                      tol_ev: float = DEFAULT_EIGVEC_TOL) -> AssumptionReport:
    """Classify (A, d) into the theorem regime or one of the heuristic regimes."""
    tol_ev = _tolerance(tol_ev, "tol_ev")
    mu, residual = eigvec_residual(sys.A.T, d)
    spec = spectrum(sys.A, tol_spec)
    a1 = spec.all_real
    a2 = bool(residual <= tol_ev)
    if a1 and a2:
        regime = REGIME_THEOREM
    elif a1:
        regime = REGIME_HEURISTIC_REAL
    else:
        regime = REGIME_HEURISTIC_COMPLEX
    return AssumptionReport(spectrum=spec, eigvec_mu=mu, eigvec_residual=residual,
                            assumption1_holds=a1, assumption2_holds=a2, regime=regime)


def optimize_B(sys: LinearSystem, U: ControlPolytope, ball: FrobeniusBall, d,
               sense: str = "grow", steps: int = DEFAULT_STEPS,
               tol_spec: float = DEFAULT_IMAG_TOL,
               tol_ev: float = DEFAULT_EIGVEC_TOL) -> WarpResult:
    """Select the input matrix in the ball that grows (or shrinks) the
    reachable set along d.

    For each control vertex u_i the rank-one gradient W_i = P0 u_i^T gives
    the closed-form ball maximizer B_i = center + radius W_i / ||W_i||_F of
    B -> P0^T B u_i and its objective P0^T B_i u_i.  Growing selects the
    candidate with the largest objective, shrinking the one with the
    smallest (for symmetric control sets that candidate pushes the
    dominant vertex functional down); ties go to the lowest index.  The
    returned result always carries the assumption report; callers decide
    how loudly to warn outside the theorem regime.
    """
    _, dv = _check_reach_args(sys, ball.center, U, d)
    _check_sense(sense)
    P0 = initial_costate(sys, dv)
    candidates = []
    for i in range(U.num_vertices):
        u = U.vertices[i]
        W = np.outer(P0, u)
        Bi = ball_argmax(ball, W, "grow")
        candidates.append(Candidate(index=i, B=Bi, objective=float(P0 @ Bi @ u)))
    objectives = np.array([c.objective for c in candidates])
    degenerate = bool(np.max(np.abs(objectives)) == 0.0)
    if degenerate:
        i_star = 0
        B_star = ball.center
    else:
        i_star = int(np.argmax(objectives) if sense == "grow" else np.argmin(objectives))
        B_star = candidates[i_star].B
    report = check_assumptions(sys, dv, tol_spec, tol_ev)
    G_nominal = growth_metric(sys, ball.center, U, dv, steps).G_d
    G_optimized = growth_metric(sys, B_star, U, dv, steps).G_d
    return WarpResult(B_star=B_star, i_star=i_star, candidates=tuple(candidates),
                      P0=P0, G_nominal=G_nominal, G_optimized=G_optimized,
                      report=report, sense=sense, degenerate=degenerate)
