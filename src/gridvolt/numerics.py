"""Dense real linear algebra: LU solves, inversion, and the SVD.

Everything here is written against plain ``numpy.ndarray`` (row-major dense
storage). One-shot solves (:func:`lu_solve`) use LAPACK's ``gesv``. The
explicit factorization (:func:`lu_factor`) is implemented directly: its
pivot threshold decides when a matrix counts as singular, and callers reuse
one factorization for many solves. The SVD is LAPACK's, given a fixed sign
convention so results are reproducible; the top pair of a symmetric PSD
matrix comes from LAPACK's symmetric eigensolver.

All tolerances are centralized below as named constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LU_PIVOT_RTOL",
    "SVD_ORTHOGONALITY_TOL",
    "SVD_RECONSTRUCTION_RTOL",
    "SYMMETRY_ATOL",
    "PSD_EIG_FLOOR",
    "SingularMatrixError",
    "SvdConvergenceError",
    "LuFactorization",
    "SvdResult",
    "lu_factor",
    "lu_solve",
    "invert",
    "svd",
    "top_singular_pair",
]

# Pivot smaller than this times ||a||_inf is treated as singular.
LU_PIVOT_RTOL = 1e-12
# Contract tolerances (asserted by the test suite, re-exported for callers).
SVD_ORTHOGONALITY_TOL = 1e-10
SVD_RECONSTRUCTION_RTOL = 1e-8
# top_singular_pair input validation.
SYMMETRY_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-10


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision."""

    def __init__(self, message: str, pivot: float = 0.0, column: int = -1):
        super().__init__(message)
        self.pivot = pivot
        self.column = column


class SvdConvergenceError(RuntimeError):
    """LAPACK's SVD (or symmetric eigensolver) iteration did not converge."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class LuFactorization:
    """PA = LU with partial pivoting; ``lu`` packs L (unit diagonal) and U."""

    lu: np.ndarray
    piv: np.ndarray
    norm_inf: float


def lu_factor(a) -> LuFactorization:
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"square matrix required, got {n}x{m}")
    lu = a.copy()
    piv = np.arange(n)
    norm = float(np.max(np.sum(np.abs(a), axis=1))) if n else 0.0
    if n and norm == 0.0:
        raise SingularMatrixError("zero matrix is singular", 0.0, 0)
    threshold = LU_PIVOT_RTOL * norm
    for k in range(n):
        j = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[j, k])
        if pivot < threshold:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} below {threshold:.3e} at column {k} "
                "(singular to working precision)",
                pivot, k,
            )
        if j != k:
            lu[[k, j]] = lu[[j, k]]
            piv[[k, j]] = piv[[j, k]]
        lu[k + 1:, k] /= lu[k, k]
        if k + 1 < n:
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LuFactorization(lu=lu, piv=piv, norm_inf=norm)


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
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"square matrix required, got {n}x{m}")
    b = np.array(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs has shape {b.shape}, expected {n} rows")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix ({exc})") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution is not finite "
                                  "(singular to working precision)")
    return x


def invert(a) -> np.ndarray:
    """Inverse of a nonsingular square matrix."""
    fac = lu_factor(a)
    return lu_solve_factored(fac, np.eye(fac.lu.shape[0]))


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Full decomposition a = u @ diag(sigma) @ vt.

    ``u`` is m x m orthogonal, ``vt`` n x n, ``sigma`` the min(m, n)
    singular values in descending order. Each left singular vector is
    oriented so its largest-magnitude entry is non-negative.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def svd(a) -> SvdResult:
    """Full singular value decomposition (LAPACK through numpy) with the
    sign convention of :class:`SvdResult`."""
    a = _as_matrix(a)
    if a.size == 0:
        raise ValueError("empty matrix has no SVD")
    try:
        u, sigma, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc
    return _apply_sign_convention(u, sigma, vt)


def _apply_sign_convention(u: np.ndarray, sigma: np.ndarray,
                           vt: np.ndarray) -> SvdResult:
    r = len(sigma)
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    vt[:r][flip[:r]] = -vt[:r][flip[:r]]
    # Rows of vt beyond the coupled range get their own deterministic sign.
    rest = vt[r:]
    flip = rest[np.arange(len(rest)), np.argmax(np.abs(rest), axis=1)] < 0
    rest[flip] = -rest[flip]
    return SvdResult(u=u, sigma=sigma, vt=vt)


def top_singular_pair(a) -> tuple[float, np.ndarray]:
    """Largest singular value and left singular vector of a symmetric PSD
    matrix: its top eigenpair (LAPACK's symmetric eigensolver).

    Validates symmetry (to ``SYMMETRY_ATOL``) and positive
    semi-definiteness (smallest eigenvalue at or above ``PSD_EIG_FLOOR``);
    the returned vector has unit norm and follows the svd() sign convention.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"square matrix required, got {n}x{m}")
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
