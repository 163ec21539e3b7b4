"""Dense complex-matrix kernels used by the detector chain.

Matrices are numpy ``complex128`` arrays in row-major layout; vectors are
1-D arrays. Sizes stay tiny (a few tens of rows at most), so the routine
favours an explicit, fully testable algorithm over a LAPACK wrapper:
``inverse`` is Gauss-Jordan elimination with partial pivoting.

Tolerances that are part of the public contract:

* ``inverse``: ``||A @ inverse(A) - I||_F < 1e-9`` for condition numbers
  below 1e6. No double-precision inverse can promise that bound much
  further out: the residual carries rounding error that grows like
  ``eps * cond``, which is already 2.2e-8 at cond 1e8.
* the ZF nulling matrix ``G = (A^H A)^-1 A^H`` that
  ``detectors.nulling_matrix`` builds on ``inverse`` is the Moore-Penrose
  pseudo-inverse of a full-column-rank ``A``: all four Penrose residuals
  stay below 1e-8 (relative).
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
    """Raised when a nulling matrix is requested for a channel without full column rank."""


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
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must be a 2-D array with positive dimensions, got shape {a.shape}")
    n, m = a.shape
    if n != m:
        raise ValueError(f"inverse requires a square matrix, got {n}x{m}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")

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
