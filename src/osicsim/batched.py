"""Vectorized detection kernels for the Monte Carlo harness.

Internal module. Each function works on a leading batch axis of
independent channel instances, which is what makes desk-scale BER sweeps
take seconds instead of hours. The scalar receiver in
``linalg``/``detectors`` remains the public contract and the per-detection
timing path of the complexity benchmark.

The scalar and batched paths share one nulling formula for both cores:
the regularized Gram inverse ``P = (H^H H + lambda I)^-1`` with lambda = 0
for ZF and the noise variance for MMSE, ordering metric ``diag P`` and
nulling matrix ``G = P H^H``. They also share one slicer,
``modem.slice_indices``, which this module re-exports. :func:`nulling_batch`
returns ``P`` itself rather than ``G``: the OSIC loop of
:func:`vblast_indices_batch` does not recompute like the scalar receiver
does, but inverts once per vector and removes each detected stream from
``P`` by a rank-one Schur-complement downdate. Its arithmetic therefore
differs from the scalar path in rounding; tests pin the two together on
detection orders and point indices, and pin each downdated ``P`` to the
``linalg.inverse`` residual bound against the freshly deflated Gram
matrix wherever a fresh Gauss-Jordan inverse meets that bound itself
(condition number below 1e6). Ties in the ordering go to the lowest
original stream index in both paths.

:func:`inverse_batch` runs the scalar pivot rule in place on a batch-last
``(n, n, batch)`` copy, with no augmented ``[A | I]``, so every slice of
an elimination step is contiguous over the batch; every entry it returns
takes the same floating-point operations as in ``linalg.inverse``, so the
two agree exactly. It returns a ``(batch, n, n)`` view of that storage.
The OSIC loop keeps ``P`` and ``conj(H)`` at full size: a detected stream
is downdated out of ``P`` in place, which leaves its row and column zero,
and its ordering metric is masked with ``+inf``, so every stream keeps its
original index. ``P`` and ``H^H`` are compacted to the surviving streams
once, by boolean mask, before the final linear block.

Instead of raising on a rank-deficient instance, the batched routines
return a boolean validity mask so the harness can redraw the offending
channel without losing the rest of the batch. Symbols are constellation
point indices throughout; since point index equals the integer value of
the Gray label, bit errors are a popcount of XORed indices.
"""

from __future__ import annotations

import numpy as np

from .channel import SnrSpec
from .linalg import PIVOT_RTOL
from .modem import Constellation, slice_indices

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


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


def nulling_batch(h: np.ndarray, core: str, snr: SnrSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched regularized Gram inverse and ordering metric; see ``detectors.nulling_matrix``.

    Returns ``(P, diag P, ok)`` with ``P = (H^H H + lambda I)^-1``
    (lambda = 0 for ZF, the noise variance for MMSE); the nulling matrix
    is ``G = P H^H``.
    """
    if core not in ("zf", "mmse"):
        raise ValueError(f"unknown nulling core {core!r}")
    reg = snr.noise_var if core == "mmse" else 0.0
    p, ok = inverse_batch(h.conj().transpose(0, 2, 1) @ h + np.eye(h.shape[2]) * reg)
    return p, np.diagonal(p, axis1=1, axis2=2).real.copy(), ok


def downdate_inverse_batch(p: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Remove stream ``j[b]`` from ``p = A^-1`` in place, at full size.

    One Schur-complement downdate per instance,
    ``P -= P[:, j] P[j, :] / P[j, j]`` (Hassibi, ICASSP 2000; Benesty,
    Huang & Chen, IEEE TSP 2003): O(n^2) work in place of a fresh O(n^3)
    inversion. Afterwards row and column ``j`` are zero and the other
    rows and columns hold the inverse of ``A`` with row and column ``j``
    removed; a zeroed row and column stay zero under later downdates.
    Returns ``ok``: ``ok[b]`` is False where the pivot ``P[j,j]`` is not
    finite and positive, as it is for every Hermitian positive definite
    ``A``. Such instances get a finite but meaningless ``p`` that the
    caller must discard.
    """
    q = p.transpose(1, 2, 0)  # batch last, as ``inverse_batch`` stores P
    b = np.arange(len(j))
    piv = q[j, j, b]
    ok = np.isfinite(piv) & (piv.real > 0.0)
    piv = np.where(ok, piv, 1.0)  # keep dead instances finite
    col = np.ascontiguousarray(q[:, j, b])  # contiguous over the batch
    row = np.ascontiguousarray(q[j, :, b].T) / piv
    q -= col[:, None] * row
    q[j, :, b] = 0.0
    q[:, j, b] = 0.0
    return ok


def transmit_batch(h: np.ndarray, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Batched ``y = H x + n`` over instance-stacked arrays."""
    return np.einsum("bij,bj->bi", h, x) + noise


def vblast_indices_batch(
    h: np.ndarray,
    y: np.ndarray,
    core: str,
    iterations: int,
    snr: SnrSpec,
    c: Constellation,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched truncated V-BLAST.

    Returns ``(indices, orders, ok)``: detected point indices per original
    stream, the per-instance detection order (original stream indices,
    shape ``(batch, iterations)``), and the validity mask.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.array(y, dtype=np.complex128)  # a copy: cancelled in place
    batch, n_r, n_t = h.shape
    if iterations > n_t - 1:
        raise ValueError(f"iterations {iterations} exceeds n_t - 1 = {n_t - 1}")

    rows = np.arange(batch)
    hc = h.conj()  # H^H, read transposed
    alive = np.ones((batch, n_t), dtype=bool)
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)

    # one Gram inversion per vector; each detected stream is downdated out
    # of P in place, and its ordering metric is masked
    p, metric, ok = nulling_batch(h, core, snr)
    for it in range(iterations):
        j = np.argmin(metric, axis=1)  # first minimum -> lowest original index
        orders[:, it] = j
        w = np.einsum("bi,bri->br", p[rows, j], hc)  # row j of P H^H
        z = np.sum(w * y, axis=1)
        sidx = slice_indices(z, c)
        out[rows, j] = sidx
        y -= h[rows, :, j] * c.points[sidx][:, None]
        alive[rows, j] = False
        ok &= downdate_inverse_batch(p, j)
        metric = np.where(alive, np.diagonal(p, axis1=1, axis2=2).real, np.inf)

    m = n_t - iterations
    p = p[alive[:, :, None] & alive[:, None, :]].reshape(batch, m, m)
    hc = hc[np.broadcast_to(alive[:, None, :], hc.shape)].reshape(batch, n_r, m)
    z = np.einsum("bij,bj->bi", p @ hc.transpose(0, 2, 1), y)
    out[alive] = slice_indices(z, c).ravel()
    return out, orders, ok


def ml_indices_batch(
    h: np.ndarray, y: np.ndarray, cand_idx: np.ndarray, c: Constellation
) -> np.ndarray:
    """Batched exhaustive ML over precomputed candidate index vectors."""
    cand_sym = c.points[cand_idx]  # (P, n_t)
    hx = np.einsum("bij,pj->bpi", h, cand_sym)  # (batch, P, n_r)
    metric = np.sum(np.abs(y[:, None, :] - hx) ** 2, axis=2)
    best = np.argmin(metric, axis=1)
    return cand_idx[best]


def count_bit_errors(tx_idx: np.ndarray, rx_idx: np.ndarray) -> int:
    """Total differing Gray-label bits between two index arrays."""
    return int(_POPCOUNT[np.bitwise_xor(tx_idx, rx_idx)].sum())
