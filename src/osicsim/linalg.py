"""Dense complex-matrix kernels used by the detector chain.

Matrices are numpy ``complex128`` arrays in row-major layout; vectors are
1-D arrays. Sizes stay tiny (a few tens of rows at most), so the routine
favours an explicit, fully testable algorithm over a LAPACK wrapper.

This module owns the package's Gauss-Jordan elimination, one step written
once in ``_eliminate``, which scales the pivot row by the reciprocal its
caller computes. :func:`inverse_batch` inverts a stack of Hermitian
positive definite matrices, the regularized Gram matrices ``H^H H +
lambda I`` that every receiver inverts, with diagonal pivots: elimination
on such a matrix is stable without a pivot search (Golub & Van Loan,
*Matrix Computations*, sec. 4.2; Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 10). It adds ``lambda`` to the diagonal of its
own working copy, and since the pivots of a Hermitian matrix are real, it
scales by the real reciprocal of each pivot's real part. It flags the
instances whose pivot is not clearly positive instead of inverting them.
:func:`inverse` inverts one general square matrix with partial pivoting,
scaling by a complex reciprocal; it checks its input and raises instead
of flagging, and the scalar receiver keeps that name for the benchmark's
bindings and the tests of this contract.

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
* singularity: ``inverse_batch`` flags an instance with a pivot whose
  real part is below ``tol``, ``1e-12`` times the largest real diagonal
  entry of the regularized input (also a NaN pivot, a non-positive one or
  an indefinite input), and every instance whose threshold is not
  finite. On a positive semidefinite matrix that is
  ``1e-12`` times its largest-magnitude entry, because
  ``|a_ij|^2 <= a_ii a_jj``; reading the diagonal alone leaves a
  non-finite entry off it to a later pivot, which it makes non-finite.
  ``inverse`` raises :class:`SingularMatrixError` on a pivot whose
  magnitude is below ``1e-12`` times the largest-magnitude entry of its
  input.
"""

from __future__ import annotations

import numpy as np

# Relative pivot threshold below which elimination declares the matrix
# singular (scaled by the largest diagonal entry of a Hermitian input, the
# largest-magnitude entry of a general one).
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when Gaussian elimination meets a vanishing pivot."""


class RankDeficiencyError(SingularMatrixError):
    """Raised when a nulling matrix is requested for a channel without full column rank."""


def _batch_last(a) -> np.ndarray:
    """A batch-last ``(n, n, batch)`` copy of the square stack ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    _, n, m = a.shape
    if n != m:
        raise ValueError(f"inverse requires square matrices, got {n}x{m}")
    return a.transpose(1, 2, 0).copy()


def _eliminate(a: np.ndarray, k: int, s: np.ndarray) -> None:
    """Gauss-Jordan step ``k`` in place on the batch-last ``a``, scaling row
    ``k`` by ``s``, the reciprocal of each instance's pivot ``a[k, k]``.

    Works on ``a`` itself instead of the augmented ``[A | I]``: the
    augmented form never reads column k of ``A`` after step k, and the
    identity column it fills at step k is zero outside row k, so column k
    of ``a`` stores that column of the inverse. Every stored entry takes
    the same floating-point operations as in the augmented form. With the
    batch axis last, every slice of a step is contiguous over the batch.
    Callers pass ``s = 1`` for dead instances (``ok`` False), which keeps
    them finite.
    """
    col = a[:, k].copy()
    col[k] = 0.0
    a[:, k] = 0.0
    a[k, k] = 1.0
    a[k] *= s
    a -= col[:, None] * a[k]


def inverse_batch(a: np.ndarray, reg: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan inversion of a stack of Hermitian positive definite matrices.

    Inverts ``a + reg I``: the regularizer is added to the diagonal of
    the working copy. Pivots on the diagonal, in order, with no search and
    no row exchange, and scales each pivot row by the real reciprocal of
    its pivot's real part; the imaginary part of a pivot of a Hermitian
    matrix is rounding residue. Returns ``(inv, ok)`` where ``ok[b]`` is
    False for instances with a pivot whose real part fell below the
    singularity threshold, as it does for a singular, indefinite or
    non-finite input; their output is garbage and must be discarded by
    the caller. ``inv`` is a ``(batch, n, n)`` view of batch-last storage.
    """
    a = _batch_last(a)
    n, _, batch = a.shape
    diag = a.reshape(n * n, batch)[:: n + 1]  # a view of the diagonal, (n, batch)
    diag += reg
    tol = PIVOT_RTOL * diag.real.max(axis=0)
    ok = np.isfinite(tol) & (tol > 0.0)  # an inf diagonal can meet no pivot below it
    for k in range(n):
        piv = a[k, k].real
        ok &= piv >= tol
        _eliminate(a, k, 1.0 / np.where(ok, piv, 1.0))
    return a.transpose(2, 0, 1), ok


def _inverse_pivoting_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan inversion of a stack of general square matrices with
    partial pivoting; returns ``(inv, ok)`` as :func:`inverse_batch` does,
    with ``ok[b]`` False where a pivot's magnitude fell below the threshold."""
    a = _batch_last(a)
    n = len(a)
    tol = PIVOT_RTOL * np.max(np.abs(a), axis=(0, 1))
    ok = tol > 0.0
    pivots = []
    for k in range(n):
        p = k + np.argmax(np.abs(a[k:, k]), axis=0)
        swap = np.flatnonzero(p != k)
        a[k, :, swap], a[p[swap], :, swap] = a[p[swap], :, swap], a[k, :, swap]
        pivots.append((swap, p[swap]))
        ok &= np.abs(a[k, k]) >= tol
        _eliminate(a, k, 1.0 / np.where(ok, a[k, k], 1.0))
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
