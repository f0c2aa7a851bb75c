"""Dense real linear algebra: LU solves, inverses and the top singular pair.

Everything here is written against plain ``numpy.ndarray`` (row-major dense
storage). One-shot solves (:func:`lu_solve`) use LAPACK's ``gesv``, and
:func:`inverse` LAPACK's ``getrf``/``getri``: numpy exposes no LU factor to
keep, so a matrix applied to many right-hand sides one at a time is
inverted once and applied by matrix-vector products. A constant matrix
counts as singular when its 1-norm condition number reaches
``1 / LU_PIVOT_RTOL`` (:func:`check_condition`). The hand-written
factorization (:func:`lu_factor`, :func:`lu_solve_factored`) serves
only the sensitivity model's small Schur complement. The top singular pair
of a symmetric PSD matrix is its top eigenpair from LAPACK's symmetric
eigensolver, with a fixed sign so results are reproducible.

All tolerances are centralized below as named constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LU_PIVOT_RTOL",
    "SYMMETRY_ATOL",
    "PSD_EIG_FLOOR",
    "SingularMatrixError",
    "SvdConvergenceError",
    "LuFactorization",
    "check_condition",
    "inverse",
    "lu_factor",
    "lu_solve",
    "lu_solve_factored",
    "top_singular_pair",
]

# Pivot smaller than this times ||a||_inf is treated as singular by
# lu_factor; a 1-norm condition number at or above its inverse by
# check_condition.
LU_PIVOT_RTOL = 1e-12
# top_singular_pair input validation.
SYMMETRY_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-10


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision."""


class SvdConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver did not converge."""


def _as_square(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    n, m = a.shape
    if n != m:
        raise ValueError(f"square matrix required, got {n}x{m}")
    return a


def _lapack(fn, *args) -> np.ndarray:
    """``fn(*args)`` with LAPACK's singular verdict and a non-finite result
    (overflow past a tiny pivot) both raised as ``SingularMatrixError``."""
    try:
        x = fn(*args)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix ({exc})") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution is not finite "
                                  "(singular to working precision)")
    return x


@dataclass(frozen=True, eq=False)
class LuFactorization:
    """PA = LU with partial pivoting; ``lu`` packs L (unit diagonal) and U."""

    lu: np.ndarray
    piv: np.ndarray


def lu_factor(a) -> LuFactorization:
    a = _as_square(a)
    n = a.shape[0]
    lu = a.copy()
    piv = np.arange(n)
    norm = float(np.max(np.sum(np.abs(a), axis=1))) if n else 0.0
    if n and norm == 0.0:
        raise SingularMatrixError("zero matrix is singular")
    threshold = LU_PIVOT_RTOL * norm
    for k in range(n):
        j = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[j, k])
        if pivot < threshold:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} below {threshold:.3e} at column {k} "
                "(singular to working precision)")
        if j != k:
            lu[[k, j]] = lu[[j, k]]
            piv[[k, j]] = piv[[j, k]]
        lu[k + 1:, k] /= lu[k, k]
        if k + 1 < n:
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LuFactorization(lu=lu, piv=piv)


def lu_solve_factored(fac: LuFactorization, b) -> np.ndarray:
    """Solve a x = b given the factorization of a. ``b`` may be 1-D or 2-D."""
    b = np.array(b, dtype=float)
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    n = fac.lu.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")
    x = b[fac.piv].astype(float)
    lu = fac.lu
    for i in range(1, n):          # forward: L y = P b
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):  # backward: U x = y
        if i + 1 < n:
            x[i] -= lu[i, i + 1:] @ x[i + 1:]
        x[i] /= lu[i, i]
    return x[:, 0] if vector else x


def lu_solve(a, b) -> np.ndarray:
    """Solve a x = b in one shot with LAPACK's ``gesv`` (LU with partial
    pivoting). ``b`` may be 1-D or 2-D.

    Raises ``SingularMatrixError`` when LAPACK meets an exactly zero pivot
    or the solution is not finite. The ``LU_PIVOT_RTOL`` threshold and
    factor reuse belong to :func:`lu_factor`.
    """
    a = _as_square(a)
    n = a.shape[0]
    b = np.array(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs has shape {b.shape}, expected {n} rows")
    return _lapack(np.linalg.solve, a, b)


def inverse(a) -> np.ndarray:
    """Explicit inverse of ``a`` with LAPACK (``getrf``, then ``getri``),
    for a matrix that is applied to many right-hand sides that arrive one
    at a time.

    Same checks and errors as :func:`lu_solve`: ``SingularMatrixError``
    when LAPACK meets an exactly zero pivot or the inverse is not finite.
    """
    return _lapack(np.linalg.inv, _as_square(a))


def check_condition(a, a_inv) -> None:
    """Raise ``SingularMatrixError`` when ``a`` is singular to working
    precision: when its 1-norm condition number ``||a||_1 ||a_inv||_1``,
    with ``a_inv`` its computed inverse, is at or above ``1 / LU_PIVOT_RTOL``
    (or overflows). An empty matrix passes."""
    with np.errstate(over="ignore"):
        cond = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0)) * float(
            np.max(np.sum(np.abs(a_inv), axis=0), initial=0.0))
    if not cond < 1.0 / LU_PIVOT_RTOL:
        raise SingularMatrixError(f"condition estimate >= {cond:.3e}")


def top_singular_pair(a) -> tuple[float, np.ndarray]:
    """Largest singular value and left singular vector of a symmetric PSD
    matrix: its top eigenpair (LAPACK's symmetric eigensolver).

    Validates symmetry (to ``SYMMETRY_ATOL``) and positive
    semi-definiteness (smallest eigenvalue at or above ``PSD_EIG_FLOOR``).
    The returned vector has unit norm, and its largest-magnitude entry is
    non-negative (the first such entry on a tie).
    """
    a = _as_square(a)
    if a.size == 0:
        raise ValueError("empty matrix has no singular pair")
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_ATOL:
        raise ValueError(f"matrix is asymmetric (max |a - a^T| = {asym:.3e})")
    try:
        eigvals, eigvecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc
    if eigvals[0] < PSD_EIG_FLOOR:
        raise ValueError(
            f"matrix has negative eigenvalue ~{eigvals[0]:.3e}, not PSD")
    u1 = eigvecs[:, -1].copy()
    if u1[np.argmax(np.abs(u1))] < 0:
        u1 = -u1
    return float(eigvals[-1]), u1
