"""Vectorized detection kernels: the package's one detection engine.

Each function works on a leading batch axis of independent channel
instances, which is what makes desk-scale BER sweeps take seconds instead
of hours. The Gauss-Jordan inverse, :func:`inverse_batch`, belongs to
``linalg`` and is re-exported here. The scalar receiver,
``linalg.inverse`` and ``detectors.vblast_detect``, is a batch-of-one
view of these kernels, kept for the benchmark's bindings and the tests of
its contract; it has no loop of its own.

Both cores share one nulling formula: the regularized Gram inverse
``P = (H^H H + lambda I)^-1`` with lambda = 0 for ZF and the noise
variance for MMSE, ordering metric ``diag P`` and nulling matrix
``G = P H^H``. :func:`nulling_batch` returns ``P`` itself rather than
``G``. Every path slices with ``modem.slice_indices``, which this module
re-exports. There are two OSIC loops. The complexity benchmark's
:func:`recompute_indices_batch` is the paper's receiver: it recomputes
``P`` and ``G = P H^H`` on the compacted, deflated channel at every
iteration, so its cost scales like the recomputing algorithm's. The sweep
engine's :func:`vblast_indices_batch` inverts once per vector and removes
each detected stream from ``P`` by a rank-one Schur-complement downdate.
The two loops differ in rounding; tests pin them to each other on
detection orders, point indices and validity, and pin each downdated
``P`` to the ``linalg.inverse`` residual bound against the freshly
deflated Gram matrix wherever a fresh Gauss-Jordan inverse meets that
bound itself (condition number below 1e6). Ties in the ordering go to the
lowest original stream index in both loops.

The downdating loop keeps ``P`` and ``conj(H)`` at full size: a detected
stream is downdated out of ``P`` in place, which leaves its row and
column zero, and its ordering metric is masked with ``+inf``, so every
stream keeps its original index. ``P`` and ``H^H`` are compacted to the
surviving streams once, by boolean mask, before the final linear block.

Instead of raising on a rank-deficient instance, the batched routines
return a boolean validity mask so the harness can redraw the offending
channel without losing the rest of the batch. Symbols are constellation
point indices throughout; since point index equals the integer value of
the Gray label, bit errors are a popcount of XORed indices.
"""

from __future__ import annotations

import numpy as np

from .channel import SnrSpec
from .linalg import inverse_batch
from .modem import Constellation, slice_indices

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


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
    if iterations < 0:
        raise ValueError(f"iterations {iterations} is negative")
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


def recompute_indices_batch(
    h: np.ndarray, y: np.ndarray, core: str, iterations: int, snr: SnrSpec, c: Constellation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched truncated V-BLAST that recomputes the nulling matrix at every iteration.

    The paper's receiver; ``detectors.vblast_detect`` runs it on a batch
    of one. Each iteration inverts the Gram matrix of the compacted,
    deflated channel afresh, so its cost scales the way the recomputing
    algorithm does. Returns ``(indices, orders, ok)`` as
    :func:`vblast_indices_batch` does; ``ok`` is False wherever any of the
    inversions met a vanishing pivot.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.array(y, dtype=np.complex128)  # a copy: cancelled in place
    batch, n_r, n_t = h.shape
    if iterations < 0:
        raise ValueError(f"iterations {iterations} is negative")
    if iterations > n_t - 1:
        raise ValueError(f"iterations {iterations} exceeds n_t - 1 = {n_t - 1}")

    rows = np.arange(batch)
    active = np.broadcast_to(np.arange(n_t), (batch, n_t))  # original indices of undetected streams
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)
    ok = np.ones(batch, dtype=bool)
    for it in range(iterations + 1):  # the last round is the final linear block
        p, metric, ok_it = nulling_batch(h, core, snr)
        ok &= ok_it
        g = p @ h.conj().transpose(0, 2, 1)
        if it == iterations:
            break
        j = np.argmin(metric, axis=1)  # first minimum -> lowest original index
        sidx = slice_indices((g[rows, j][:, None, :] @ y[:, :, None])[:, 0, 0], c)
        orders[:, it] = active[rows, j]
        out[rows, orders[:, it]] = sidx
        y -= h[rows, :, j] * c.points[sidx][:, None]
        keep = np.ones(active.shape, dtype=bool)
        keep[rows, j] = False
        active = active[keep].reshape(batch, -1)
        h = h[np.broadcast_to(keep[:, None, :], h.shape)].reshape(batch, n_r, -1)
    out[rows[:, None], active] = slice_indices((g @ y[:, :, None])[:, :, 0], c)
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
