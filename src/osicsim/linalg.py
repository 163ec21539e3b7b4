"""Dense complex-matrix kernels used by the detector chain.

Matrices are numpy ``complex128`` arrays in row-major layout; vectors are
1-D arrays. Sizes stay tiny (a few tens of rows at most), so the routine
favours an explicit, fully testable algorithm over a LAPACK wrapper.

This module owns the package's one Gauss-Jordan elimination with partial
pivoting, :func:`inverse_batch`, which inverts a stack of matrices and
flags the singular ones. ``inverse`` is a batch-of-one view of it that
checks its input and raises instead of flagging; the scalar receiver
keeps that name for the benchmark's bindings and the tests of this
contract.

Tolerances that are part of the public contract:

* ``inverse``: ``||A @ inverse(A) - I||_F < 1e-9`` for condition numbers
  below 1e6. No double-precision inverse can promise that bound much
  further out: the residual carries rounding error that grows like
  ``eps * cond``, which is already 2.2e-8 at cond 1e8.
* the ZF nulling matrix ``G = (A^H A)^-1 A^H`` that
  ``batched.nulling_batch`` builds on ``inverse_batch`` (and
  ``detectors.nulling_matrix`` returns for one channel) is the
  Moore-Penrose pseudo-inverse of a full-column-rank ``A``: all four
  Penrose residuals stay below 1e-8 (relative).
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


def inverse_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan inversion of a stack of square matrices.

    Returns ``(inv, ok)`` where ``ok[b]`` is False for instances whose
    pivot fell below the singularity threshold; their output is garbage
    and must be discarded by the caller. ``inv`` is a ``(batch, n, n)``
    view of batch-last storage.
    """
    a = np.asarray(a, dtype=np.complex128)
    _, n, m = a.shape
    if n != m:
        raise ValueError(f"inverse requires square matrices, got {n}x{m}")
    tol = PIVOT_RTOL * np.max(np.abs(a), axis=(1, 2))
    ok = tol > 0.0

    # Gauss-Jordan on a batch-last copy of ``a`` itself instead of the
    # augmented ``[A | I]``: the augmented form never reads column k of ``A``
    # after step k, and the identity column it fills at step k is zero
    # outside row k, so column k of ``a`` stores that column of the inverse.
    # Every stored entry takes the same floating-point operations as in the
    # augmented form. The identity columns follow the row swaps, which the
    # last loop undoes. With the batch axis last, every slice of a step is
    # contiguous over the batch.
    a = a.transpose(1, 2, 0).copy()
    pivots = []
    for k in range(n):
        p = k + np.argmax(np.abs(a[k:, k]), axis=0)
        swap = np.flatnonzero(p != k)
        a[k, :, swap], a[p[swap], :, swap] = a[p[swap], :, swap], a[k, :, swap]
        pivots.append((swap, p[swap]))
        piv = a[k, k]
        bad = np.abs(piv) < tol
        ok &= ~bad
        piv = np.where(ok, piv, 1.0)  # keep dead instances finite
        col = a[:, k].copy()
        col[k] = 0.0
        a[:, k] = 0.0
        a[k, k] = 1.0
        a[k] /= piv
        a -= col[:, None] * a[k]
    for k in range(n - 1, -1, -1):  # row swaps of A are column swaps of A^-1
        swap, p = pivots[k]
        a[:, k, swap], a[:, p, swap] = a[:, p, swap], a[:, k, swap]
    return a.transpose(2, 0, 1), ok


def inverse(a) -> np.ndarray:
    """Invert one square matrix: :func:`inverse_batch` on a batch of one.

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
    inv, ok = inverse_batch(a[None])
    if not ok[0]:
        raise SingularMatrixError(f"a pivot fell below {PIVOT_RTOL:g} times the largest-magnitude entry")
    return inv[0]
