"""Dense complex-matrix kernels used by the detector chain.

Matrices are numpy ``complex128`` arrays in row-major layout; vectors are
1-D arrays. Sizes stay tiny (a few tens of rows at most), so the routines
favour explicit, fully testable algorithms over LAPACK wrappers:
``inverse`` is Gauss-Jordan elimination with partial pivoting, and
``pinv`` forms the normal equations ``(A^H A)^-1 A^H``, which for
full-column-rank matrices of this size sits far below the advertised
tolerances.

Tolerances that are part of the public contract:

* ``inverse``: ``||A @ inverse(A) - I||_F < 1e-9`` for condition numbers
  below 1e6. No double-precision inverse can promise that bound much
  further out: the residual carries rounding error that grows like
  ``eps * cond``, which is already 2.2e-8 at cond 1e8.
* ``pinv``: all four Moore-Penrose residuals below 1e-8 (relative).
* singularity: a pivot whose magnitude falls below ``1e-12`` times the
  largest-magnitude entry of the input raises :class:`SingularMatrixError`.
"""

from __future__ import annotations

import numpy as np

# Relative pivot threshold below which elimination declares the matrix
# singular (scaled by the largest-magnitude entry of the input).
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when Gaussian elimination meets a vanishing pivot."""


class RankDeficiencyError(SingularMatrixError):
    """Raised when a pseudo-inverse is requested for a rank-deficient matrix."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array with positive dimensions, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")


def hermitian(a) -> np.ndarray:
    """Conjugate transpose of ``a`` (a new array, dimensions swapped)."""
    return _as_matrix(a).conj().T.copy()


def matmul(a, b) -> np.ndarray:
    """Complex matrix product ``a @ b``.

    Raises
    ------
    ValueError
        If the inner dimensions disagree.
    """
    a = _as_matrix(a, "left operand")
    b = _as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: ({a.shape[0]}x{a.shape[1]}) @ ({b.shape[0]}x{b.shape[1]})")
    return a @ b


def inverse(a) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan elimination with partial pivoting.

    Parameters
    ----------
    a : array_like
        Square complex matrix with finite entries.

    Returns
    -------
    np.ndarray
        ``a``-inverse, satisfying ``||a @ inv - I||_F < 1e-9`` whenever the
        condition number of ``a`` is below 1e6.

    Raises
    ------
    SingularMatrixError
        If a pivot magnitude falls below ``PIVOT_RTOL`` times the
        largest-magnitude entry of the input.
    ValueError
        If ``a`` is not square or contains non-finite entries.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"inverse requires a square matrix, got {n}x{m}")
    _require_finite(a, "matrix")

    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    tol = PIVOT_RTOL * scale

    aug = np.concatenate([a, np.eye(n, dtype=np.complex128)], axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        piv = aug[p, k]
        if abs(piv) < tol:
            raise SingularMatrixError(f"pivot {abs(piv):.3e} below threshold {tol:.3e} at column {k}")
        if p != k:
            aug[[k, p]] = aug[[p, k]]
            piv = aug[k, k]
        aug[k] = aug[k] / piv
        col = aug[:, k].copy()
        col[k] = 0.0
        aug -= col[:, None] * aug[k][None, :]
    return np.ascontiguousarray(aug[:, n:])


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a full-column-rank matrix.

    Computed via the normal equations ``(A^H A)^-1 A^H``; adequate for the
    small, well-conditioned matrices the detectors produce. On a square
    nonsingular input this coincides with :func:`inverse` to within 1e-8
    relative Frobenius error.

    Raises
    ------
    RankDeficiencyError
        If ``A^H A`` is (numerically) singular, i.e. ``a`` does not have
        full column rank.
    """
    a = _as_matrix(a)
    _require_finite(a, "matrix")
    ah = a.conj().T
    try:
        gram_inv = inverse(ah @ a)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"matrix does not have full column rank: {exc}") from exc
    return gram_inv @ ah


def row_norms(a) -> np.ndarray:
    """Euclidean norm of each row: ``result[i] = sqrt(sum_j |a[i, j]|^2)``."""
    a = _as_matrix(a)
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=1))
