"""Dense matrix helpers: exponentials, spectra, eigenvector diagnostics.

Systems handled by this package are tiny (state dimension of a few), so
robustness wins over asymptotic speed: the matrix exponential uses
scaling-and-squaring with a degree-13 Pade approximant (scipy) and
eigenvalues come from the LAPACK QR iteration on Hessenberg form (numpy).
All entry points validate shapes and finiteness and return read-only
arrays.  Products this small never repay a hand-off to a second BLAS
thread, so importing the package sets OPENBLAS_NUM_THREADS to 1 unless the
caller has set it.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, NumericError, PreconditionError

DEFAULT_IMAG_TOL = 1e-9

UNIT_NORM_TOL = 1e-12


def _tolerance(value, name: str) -> float:
    """value as a nonnegative float; anything else (NaN, a string, a negative
    number) raises DomainError naming the argument."""
    if not (isinstance(value, Real) and value >= 0.0):
        raise DomainError(f"{name} must be a nonnegative number, got {value!r}")
    return float(value)


def _as_array(value, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name} must be a rectangular array of numbers "
                             f"({exc})") from exc
    if arr.ndim != ndim or 0 in arr.shape:
        raise DimensionError(f"{name} must be a non-empty {ndim}-D array, got "
                             f"shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D array-like with finite entries; return a read-only copy."""
    return _as_array(M, name, 2)


def as_square(M, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(M, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate a 1-D array-like with finite entries; return a read-only copy."""
    return _as_array(v, name, 1)


def unit_direction(d, name: str = "direction") -> np.ndarray:
    """Validate that d is a unit vector (within 1e-12); return a read-only copy."""
    v = as_vector(d, name)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise PreconditionError(f"{name} must have unit norm, got {nrm!r}")
    return v


def _direction_in(d, n: int) -> np.ndarray:
    """Validate d as a unit direction in R^n; return a read-only copy."""
    v = unit_direction(d)
    if v.shape[0] != n:
        raise DimensionError(f"direction has length {v.shape[0]} but the state "
                             f"dimension is {n}")
    return v


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a real matrix plus a realness classification.

    eigenvalues are (real, imag) pairs sorted by real part then imaginary
    part, so the report is deterministic for a given matrix.
    """

    eigenvalues: tuple[tuple[float, float], ...]
    max_abs_imag: float
    all_real: bool


def mat_exp(M) -> np.ndarray:
    """Matrix exponential e^M of a square real matrix; NumericError on overflow."""
    A = as_square(M, "mat_exp argument")
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(np.asarray(A))
    if not np.isfinite(out).all():
        raise NumericError("matrix exponential is non-finite (overflow)")
    out.setflags(write=False)
    return out


def spectrum(M, tol_spec: float = DEFAULT_IMAG_TOL) -> SpectrumReport:
    """Eigenvalues of M with an all-real flag at imaginary-part tolerance tol_spec."""
    A = as_square(M, "spectrum argument")
    tol_spec = _tolerance(tol_spec, "tol_spec")
    try:
        eig = np.linalg.eigvals(np.asarray(A))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    max_abs_imag = float(np.max(np.abs(eig.imag)))
    return SpectrumReport(
        eigenvalues=tuple((float(z.real), float(z.imag)) for z in eig),
        max_abs_imag=max_abs_imag,
        all_real=bool(max_abs_imag <= tol_spec),
    )


def eigvec_residual(M, d) -> tuple[float, float]:
    """Rayleigh quotient mu = d^T M d and residual ||M d - mu d|| for unit d.

    A residual of zero certifies d as an eigenvector of M with eigenvalue mu;
    the caller decides what residual magnitude counts as "close enough".
    """
    A = as_square(M, "eigvec_residual matrix")
    v = _direction_in(d, A.shape[0])
    mu = float(v @ A @ v)
    residual = float(np.linalg.norm(A @ v - mu * v))
    return mu, residual
