"""Dense complex-matrix kernels used by the detector chain.

Matrices are numpy ``complex128`` arrays in row-major layout; vectors are
1-D arrays. Sizes stay tiny (a few tens of rows at most), so the routine
favours an explicit, fully testable algorithm over a LAPACK wrapper.

This module owns the package's Gauss-Jordan elimination, one step written
once in ``_eliminate``. :func:`inverse_batch` inverts a stack of Hermitian
positive definite matrices, the regularized Gram matrices ``H^H H +
lambda I`` that every receiver inverts, with diagonal pivots: elimination
on such a matrix is stable without a pivot search (Golub & Van Loan,
*Matrix Computations*, sec. 4.2; Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 10). It flags the instances whose pivot is not
clearly positive instead of inverting them. :func:`inverse` inverts one
general square matrix with partial pivoting; it checks its input and
raises instead of flagging, and the scalar receiver keeps that name for
the benchmark's bindings and the tests of this contract.

Tolerances that are part of the public contract:

* ``||A @ inv - I||_F < 1e-9`` for condition numbers below 1e6, on
  Hermitian positive definite ``A`` for ``inverse_batch`` and on any
  square ``A`` for ``inverse``. No double-precision inverse can promise
  that bound much further out: the residual carries rounding error that
  grows like ``eps * cond``, which is already 2.2e-8 at cond 1e8.
* the ZF nulling matrix ``G = (A^H A)^-1 A^H`` that
  ``batched.nulling_batch`` builds on ``inverse_batch`` (and
  ``detectors.nulling_matrix`` returns for one channel) is the
  Moore-Penrose pseudo-inverse of a full-column-rank ``A``: all four
  Penrose residuals stay below 1e-8 (relative).
* singularity: with ``tol`` ``1e-12`` times the largest-magnitude entry of
  the input, ``inverse_batch`` flags an instance with a pivot whose real
  part is below ``tol`` (also a NaN pivot, a non-positive one or an
  indefinite input), and ``inverse`` raises :class:`SingularMatrixError`
  on a pivot whose magnitude is below ``tol``.
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


def _batch_last(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch-last ``(n, n, batch)`` copy of the square stack ``a``, each
    instance's pivot threshold and the validity mask to start from."""
    a = np.asarray(a, dtype=np.complex128)
    _, n, m = a.shape
    if n != m:
        raise ValueError(f"inverse requires square matrices, got {n}x{m}")
    tol = PIVOT_RTOL * np.max(np.abs(a), axis=(1, 2))
    return a.transpose(1, 2, 0).copy(), tol, tol > 0.0


def _eliminate(a: np.ndarray, k: int, ok: np.ndarray) -> None:
    """Gauss-Jordan step ``k`` in place on the batch-last ``a``, on pivot ``a[k, k]``.

    Works on ``a`` itself instead of the augmented ``[A | I]``: the
    augmented form never reads column k of ``A`` after step k, and the
    identity column it fills at step k is zero outside row k, so column k
    of ``a`` stores that column of the inverse. Every stored entry takes
    the same floating-point operations as in the augmented form. With the
    batch axis last, every slice of a step is contiguous over the batch.
    Dead instances (``ok`` False) divide by 1 to stay finite.
    """
    piv = np.where(ok, a[k, k], 1.0)
    col = a[:, k].copy()
    col[k] = 0.0
    a[:, k] = 0.0
    a[k, k] = 1.0
    a[k] /= piv
    a -= col[:, None] * a[k]


def inverse_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan inversion of a stack of Hermitian positive definite matrices.

    Pivots on the diagonal, in order, with no search and no row exchange.
    Returns ``(inv, ok)`` where ``ok[b]`` is False for instances with a
    pivot whose real part fell below the singularity threshold, as it does
    for a singular, indefinite or non-finite input; their output is
    garbage and must be discarded by the caller. ``inv`` is a
    ``(batch, n, n)`` view of batch-last storage.
    """
    a, tol, ok = _batch_last(a)
    for k in range(len(a)):
        ok &= a[k, k].real >= tol
        _eliminate(a, k, ok)
    return a.transpose(2, 0, 1), ok


def _inverse_pivoting_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan inversion of a stack of general square matrices with
    partial pivoting; returns ``(inv, ok)`` as :func:`inverse_batch` does,
    with ``ok[b]`` False where a pivot's magnitude fell below the threshold."""
    a, tol, ok = _batch_last(a)
    n = len(a)
    pivots = []
    for k in range(n):
        p = k + np.argmax(np.abs(a[k:, k]), axis=0)
        swap = np.flatnonzero(p != k)
        a[k, :, swap], a[p[swap], :, swap] = a[p[swap], :, swap], a[k, :, swap]
        pivots.append((swap, p[swap]))
        ok &= np.abs(a[k, k]) >= tol
        _eliminate(a, k, ok)
    for k in range(n - 1, -1, -1):  # row swaps of A are column swaps of A^-1
        swap, p = pivots[k]
        a[:, k, swap], a[:, p, swap] = a[:, p, swap], a[:, k, swap]
    return a.transpose(2, 0, 1), ok


def inverse(a) -> np.ndarray:
    """Invert one general square matrix by Gauss-Jordan with partial pivoting.

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
    inv, ok = _inverse_pivoting_batch(a[None])
    if not ok[0]:
        raise SingularMatrixError(f"a pivot fell below {PIVOT_RTOL:g} times the largest-magnitude entry")
    return inv[0]
