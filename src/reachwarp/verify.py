"""Sampling-based falsification of the selected input matrix.

Theory says the selected matrix is optimal over the admissible ball in the
theorem regime; this module tries to beat it with uniformly drawn samples
from the ball and reports the margin.  A failed check in the theorem
regime is a bug somewhere; outside that regime it is merely information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _count, _finite, _number
from .model import ControlPolytope, FrobeniusBall, LinearSystem, _check_sense
from .reach import (DEFAULT_SEED, DEFAULT_STEPS, _check_reach_args, _grid, _growth,
                    growth_metric)  # noqa: F401 - bench/test_bench.py reads it
from .warp import WarpResult, optimize_B

DEFAULT_SAMPLES = 1000

DEFAULT_VERIFY_TOL = 1e-6


@dataclass(frozen=True)
class SampleVerdict:
    """Result of the sampled optimality check.

    margin = G_star - best_sampled_G for the grow sense and
    best_sampled_G - G_star for shrink, so a positive margin always means
    no sample beat the selected matrix.  passed is margin >= -tol_verify.
    """

    samples: int
    best_sampled_G: float
    best_sampled_B: np.ndarray
    G_star: float
    margin: float
    passed: bool
    tol_verify: float


def sample_ball(ball: FrobeniusBall, k: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """k matrices drawn uniformly from the Frobenius ball, deterministically,
    as one read-only (k, n, m) array.

    Each draw is a Gaussian direction scaled to radius * U^(1/dim) with dim
    the number of matrix entries (Muller's recipe for a norm ball).  One
    generator call draws all directions and one all radii; a direction that
    is exactly zero is redrawn from the same generator.  A sample that
    overflows raises NumericError.
    """
    k = _count(k, "sample count k")
    seed = _count(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    dim = ball.center.size
    directions = rng.standard_normal((k, dim))
    radii = ball.radius * rng.random(k) ** (1.0 / dim)
    while len(zero := np.flatnonzero(~directions.any(axis=1))):
        directions[zero] = rng.standard_normal((len(zero), dim))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = radii / np.linalg.norm(directions, axis=1)
        out = (ball.center.ravel() + scale[:, None] * directions).reshape(k, *ball.center.shape)
    _finite(out, "sampled matrix")
    out.setflags(write=False)
    return out


def verify_optimality(sys: LinearSystem, U: ControlPolytope, ball: FrobeniusBall, d,
                      sense: str = "grow", k: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED,
                      steps: int = DEFAULT_STEPS,
                      tol_verify: float = DEFAULT_VERIFY_TOL,
                      result: WarpResult | None = None) -> SampleVerdict:
    """Try to beat the selected matrix with k uniform samples from the ball.

    Accepts a precomputed WarpResult to avoid re-running the selection.
    G_star, the growth metric of its B_star at this check's step count, is
    the same call of the co-state weighted sum that growth_metric makes, so
    it equals optimize_B's G_optimized bit for bit; a second call scores the
    sample array.  The verdict is a plain extremum over samples, the first
    sample winning ties, so it does not depend on evaluation order.
    """
    _check_sense(sense)
    tol_verify = _number(tol_verify, "tol_verify", 0)
    samples = sample_ball(ball, k, seed)
    if result is None:
        result = optimize_B(sys, U, ball, d, sense, steps)
    _, dv = _check_reach_args(sys, ball.center, U, d)
    B_star, = _check_reach_args(sys, result.B_star, U)
    P, W = _grid(sys, _count(steps, "steps")).costates(dv.tobytes())
    G_star = _growth(P, W, B_star, U)
    values = _growth(P, W, samples, U)
    best = int(np.argmax(values) if sense == "grow" else np.argmin(values))
    best_G = float(values[best])
    margin = G_star - best_G if sense == "grow" else best_G - G_star
    return SampleVerdict(samples=len(samples), best_sampled_G=best_G,
                         best_sampled_B=samples[best], G_star=G_star,
                         margin=margin, passed=bool(margin >= -tol_verify),
                         tol_verify=tol_verify)
