"""Seeded generator of the cold-cache problems.

Problem i of a stream is a pure function of (seed, i).  Its shape (state
dimension n, step count, real or complex spectrum, sense, vertex count) comes
from a fixed schedule indexed by i, so every seed runs the same mix of shapes;
the seed only draws the numbers.  The shapes straddle the segment-table size
limit of the boundary-point kernel: n = 32 with 2000 or 16000 steps takes the
per-step loop, every other shape builds segment tables.
"""

from __future__ import annotations

import itertools

import numpy as np

DIMENSIONS = (2, 3, 8, 32)
STEP_COUNTS = (500, 2000, 16000)
SPECTRA = ("real", "complex")
SENSES = ("grow", "shrink")

SHAPES = tuple(itertools.product(DIMENSIONS, STEP_COUNTS, SPECTRA, SENSES))

# period 7 is coprime to len(SHAPES) = 48, so vertex counts mix with every shape
VERTEX_COUNTS = (2, 4, 6, 10, 16, 24, 64)

# spectral norm of A times the horizon stays at or below this, so e^{AT} is tame
MAX_NORM_T = 4.0


def problem_shape(i: int) -> dict:
    n, steps, spectrum, sense = SHAPES[i % len(SHAPES)]
    return {"n": n, "steps": steps, "spectrum": spectrum, "sense": sense,
            "vertices": VERTEX_COUNTS[i % len(VERTEX_COUNTS)]}


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _system_matrix(rng, n: int, spectrum: str) -> tuple[np.ndarray, np.ndarray]:
    """A = Q D Q^T with D diagonal (real spectrum) or 2x2 rotation blocks
    (complex spectrum, plus one real entry when n is odd); returns (A, Q)."""
    Q = _orthogonal(rng, n)
    D = np.zeros((n, n))
    if spectrum == "real":
        # distinct eigenvalues at least 1/n apart keep the computed spectrum real
        lam = -1.5 + 2.0 * (np.arange(n) + 0.5 * rng.random(n)) / n
        D[np.diag_indices(n)] = rng.permutation(lam)
    else:
        for k in range(0, n - 1, 2):
            a = rng.uniform(-1.0, 0.2)
            b = rng.uniform(0.5, 2.0)
            D[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
        if n % 2:
            D[n - 1, n - 1] = rng.uniform(-1.0, 0.2)
    return Q @ D @ Q.T, Q


def _control(rng, count: int) -> dict:
    m = count.bit_length() - 1
    if 1 << m == count:
        hi = rng.uniform(0.2, 1.0, m)
        return {"type": "box", "lo": (-hi).tolist(), "hi": hi.tolist()}
    # symmetric +-v pairs, so the origin lies in the hull
    m = 2 if count <= 6 else 3
    half = rng.standard_normal((count // 2, m))
    return {"type": "vertices", "list": np.vstack([half, -half]).tolist()}


def generate_problem(seed: int, i: int) -> dict:
    """JSON-ready configuration of problem i of the stream for seed."""
    shape = problem_shape(i)
    n = shape["n"]
    rng = np.random.default_rng([seed, i])
    A, Q = _system_matrix(rng, n, shape["spectrum"])
    T = float(rng.uniform(0.5, 2.0))
    A *= min(1.0, MAX_NORM_T / (T * np.linalg.norm(A, 2)))
    control = _control(rng, shape["vertices"])
    m = len(control["hi"]) if control["type"] == "box" else len(control["list"][0])
    if shape["spectrum"] == "real" and i % 2 == 0:
        # an eigenvector of A^T = A puts the problem in the theorem regime
        d = Q[:, rng.integers(n)]
    else:
        d = rng.standard_normal(n)
    d = d / np.linalg.norm(d)
    return {
        "A": A.tolist(),
        "X0": (0.5 * rng.standard_normal(n)).tolist(),
        "T": T,
        "control": control,
        "admissible": {"type": "frobenius_ball",
                       "center": rng.standard_normal((n, m)).tolist(),
                       "radius": float(rng.uniform(0.1, 1.0))},
        "direction": d.tolist(),
        "sense": shape["sense"],
        "steps": shape["steps"],
    }
