"""Dense matrix helpers: exponentials, spectra, eigenvector diagnostics.

Systems handled by this package are tiny (state dimension of a few), so
robustness wins over asymptotic speed: the matrix exponential uses
scaling-and-squaring with a degree-13 Pade approximant (scipy) and
eigenvalues come from the LAPACK QR iteration on Hessenberg form (numpy).
All entry points validate shapes and finiteness and return read-only
arrays.  Products this small never repay a hand-off to a second BLAS
thread, so importing the package sets OPENBLAS_NUM_THREADS to 1 unless the
caller has set it.

_number is the package's one check of a scalar argument, and _finite its one
overflow guard: callers compute with numpy's overflow warnings off and pass
the result through it, which raises NumericError on a non-finite entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, NumericError, PreconditionError

DEFAULT_IMAG_TOL = 1e-9

UNIT_NORM_TOL = 1e-12


def _number(value, name: str, minimum=None, whole: bool = False, error=DomainError):
    """value as a float, or as an int when whole.  A bool, a non-real, a value
    that is not a finite float (an integer too large for one included), one
    below minimum or, when whole, a fraction raises error naming the argument."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and (x.is_integer() or not whole)):
        raise error(f"{name} must be a {'whole' if whole else 'finite'} number, "
                    f"got {value!r}")
    if minimum is not None and x < minimum:
        raise error(f"{name} must be at least {minimum}, got {value!r}")
    return int(value) if whole else x


def _count(value, name: str, minimum: int = 1, error=DomainError) -> int:
    """value as an int of at least minimum; integral floats such as 2000.0 pass."""
    return _number(value, name, minimum, True, error)


def _finite(x, what: str):
    """x, unless an entry of it is non-finite: then NumericError naming what."""
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise NumericError(f"{what} is non-finite (overflow)")
    return x


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


def _unit_rows(directions, n: int):
    """directions as a read-only (k, n) array when every row passes
    _direction_in's checks with half its norm slack, so that rounding never
    decides; else None."""
    try:
        D = np.array(directions, dtype=float)
    except (TypeError, ValueError):
        return None
    with np.errstate(all="ignore"):
        ok = D.ndim == 2 and D.shape[1] == n and bool(np.all(
            np.abs(np.linalg.norm(D, axis=1) - 1.0) <= UNIT_NORM_TOL / 2))
    D.setflags(write=False)
    return D if ok else None


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
        out = _finite(scipy.linalg.expm(np.asarray(A)), "matrix exponential")
    out.setflags(write=False)
    return out


def spectrum(M, tol_spec: float = DEFAULT_IMAG_TOL) -> SpectrumReport:
    """Eigenvalues of M with an all-real flag at imaginary-part tolerance tol_spec."""
    A = as_square(M, "spectrum argument")
    tol_spec = _number(tol_spec, "tol_spec", 0)
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
