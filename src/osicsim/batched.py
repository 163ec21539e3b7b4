"""Vectorized detection kernels: the package's one detection engine.

Each function works on a leading batch axis of independent channel
instances, which is what makes desk-scale BER sweeps take seconds
instead of hours. The Gauss-Jordan inverse, :func:`inverse_batch`,
belongs to ``linalg`` and is re-exported here; it pivots on the
diagonal, which is stable on the Hermitian positive definite Gram
matrices it is given, and scales by real reciprocals, since their pivots
are real. Both kernels that handle ``P`` use that it is Hermitian
positive definite: the inverse, and the downdate, which takes row ``j``
of ``P`` as the conjugate of column ``j``. The scalar receiver,
``detectors.nulling_matrix`` and ``detectors.vblast_detect``, is a
batch-of-one view of these kernels, kept for the benchmark's bindings
and the tests of its contract; it has no loop of its own. The feedback
receiver, ``policy.feedback_detect``, restarts
:func:`recompute_indices_batch` at each count up to the one the table
resolved.

The cores, ``NULLING_CORES``, share one nulling formula, written once in
:func:`nulling_batch`: the regularized Gram inverse
``P = (H^H H + lambda I)^-1`` with lambda = 0 for ZF and the noise
variance for MMSE, ordering metric ``diag P`` and nulling matrix
``G = P H^H``. :func:`nulling_batch` returns ``P`` itself rather than
``G``, and the unregularized Gram matrix ``H^H H`` beside it. Every path
slices with ``modem.slice_indices``, which this module re-exports. There
are two OSIC loops. The complexity benchmark's
:func:`recompute_indices_batch` is the paper's receiver: it recomputes
``P`` and ``G = P H^H`` on the compacted, deflated channel at every
iteration, so its cost scales like the recomputing algorithm's. The sweep
engine's :func:`vblast_indices_batch` inverts once per vector and removes
each detected stream from ``P`` by a rank-one Schur-complement downdate.
The two loops differ in rounding; tests pin them to each other on
detection orders, point indices and validity, and pin each downdated
``P`` to the inverse residual bound of ``linalg`` against the freshly
deflated Gram matrix wherever a fresh Gauss-Jordan inverse meets that
bound itself (condition number below 1e6). Ties in the ordering go to the
lowest original stream index in both loops.

The downdating loop runs on the matched-filter output ``r = H^H y``, as
the recursive detectors it follows do: ``r`` is formed once per batch,
stream ``j`` is nulled as ``z_j = P[j, :] r`` (row ``j`` of ``P H^H``
applied to ``y``), its decision is cancelled as
``r -= (H^H H)[:, j] x_j``, and every detected entry of ``r`` is then
zeroed, entry ``j`` and the earlier ones that the cancellation refilled.
``P`` stays at full size: a detected stream is downdated out of it in
place, which leaves its row and column stale (rounding residue, not
zero), and its ordering metric is masked with ``+inf``, so every stream
keeps its original index. Nothing reads the stale entries for a
decision: they meet only zeroed entries of ``r``, both in the nulling
products and in the final linear block, one full-size ``P r`` sliced on
the surviving streams. ``P``, ``diag P``, the orders and ``ok`` are those
of nulling ``y`` with row ``j`` of ``P H^H``; the soft values differ from
that form in their last bits, so a decision can differ only where a soft
value lies within rounding of a decision boundary.

Instead of raising on a rank-deficient instance, the batched routines
return a boolean validity mask, so the harness can exclude the offending
instance from its counts and keep the rest of the batch. Symbols are
constellation point indices throughout; since point index equals the
integer value of the Gray label, bit errors are a popcount of XORed
indices.
"""

from __future__ import annotations

import numpy as np

from .channel import SnrSpec
from .linalg import inverse_batch
from .modem import Constellation, slice_indices

NULLING_CORES = ("zf", "mmse")

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def nulling_batch(
    h: np.ndarray, core: str, snr: SnrSpec, hh: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched regularized Gram inverse and ordering metric.

    Returns ``(P, diag P, ok, H^H H)`` with ``P = (H^H H + lambda I)^-1``
    (lambda = 0 for ZF, the noise variance for MMSE) and the
    unregularized Gram matrix it inverts; the nulling matrix is
    ``G = P H^H``. :func:`inverse_batch` adds lambda to the diagonal of
    its own copy of the Gram matrix, so no regularized copy is formed
    here. The regularized Gram matrix is Hermitian positive definite
    wherever ``H`` has full column rank or lambda > 0, so
    :func:`inverse_batch` pivots on its diagonal, and ``ok`` is False
    where a pivot is not clearly positive. A caller that needs ``H^H``
    again, as for ``G``, passes it as ``hh``
    (``h.conj().transpose(0, 2, 1)``) and the Gram matrix is built from
    it; otherwise ``H^H`` is a temporary, freed before the inversion.
    ``detectors.nulling_matrix`` is this on a batch of one.
    """
    if core not in NULLING_CORES:
        raise ValueError(f"unknown nulling core {core!r}")
    reg = snr.noise_var if core == "mmse" else 0.0
    gram = (h.conj().transpose(0, 2, 1) if hh is None else hh) @ h
    p, ok = inverse_batch(gram, reg)
    return p, np.diagonal(p, axis1=1, axis2=2).real.copy(), ok, gram


def downdate_inverse_batch(p: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Remove stream ``j[b]`` from ``p = A^-1`` in place, at full size.

    One Schur-complement downdate per instance,
    ``P -= P[:, j] P[j, :] / P[j, j]`` (Hassibi, ICASSP 2000; Benesty,
    Huang & Chen, IEEE TSP 2003): O(n^2) work in place of a fresh O(n^3)
    inversion. ``P`` is Hermitian, so row ``j`` is taken as the conjugate
    of column ``j`` and the pivot as its real part,
    ``P -= P[:, j] conj(P[:, j])^T / Re P[j, j]``: one gather of column
    ``j`` and one real reciprocal per instance. Afterwards the
    other rows and columns hold the inverse of ``A`` with row and column
    ``j`` removed. Row and column ``j`` are left stale: they hold rounding
    residue rather than zeros, later downdates write to them without ever
    reading them into a surviving entry, and the caller must not read them
    either (``vblast_indices_batch`` keeps every detected entry of ``H^H y``
    at zero, so they meet only zeros).
    Returns ``ok``: ``ok[b]`` is False where the pivot ``P[j,j]`` is not
    finite and positive, as it is for every Hermitian positive definite
    ``A``. Such instances get a meaningless ``p`` that the caller must
    discard; its surviving entries stay finite where ``p`` was finite.
    """
    q = p.transpose(1, 2, 0)  # batch last, as ``inverse_batch`` stores P
    b = np.arange(len(j))
    col = np.ascontiguousarray(q[:, j, b])  # contiguous over the batch
    piv = col[j, b]
    ok = np.isfinite(piv) & (piv.real > 0.0)
    s = 1.0 / np.where(ok, piv.real, 1.0)  # 1 keeps dead instances finite
    q -= col[:, None] * (col.conj() * s)
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
    y = np.asarray(y, dtype=np.complex128)
    batch, n_r, n_t = h.shape
    if iterations < 0:
        raise ValueError(f"iterations {iterations} is negative")
    if iterations > n_t - 1:
        raise ValueError(f"iterations {iterations} exceeds n_t - 1 = {n_t - 1}")

    rows = np.arange(batch)
    alive = np.ones((batch, n_t), dtype=bool)
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)

    # one Gram inversion per vector; each detected stream is downdated out
    # of P in place, and its ordering metric is masked
    p, metric, ok, gram = nulling_batch(h, core, snr)
    r = np.einsum("bri,br->bi", h, y.conj()).conj()  # H^H y without a copy of H^H, cancelled in place
    for it in range(iterations):
        j = np.argmin(metric, axis=1)  # first minimum -> lowest original index
        orders[:, it] = j
        sidx = slice_indices(np.einsum("bi,bi->b", p[rows, j], r), c)  # row j of P, times H^H y
        out[rows, j] = sidx
        r -= gram[rows, :, j] * c.points[sidx][:, None]
        alive[rows, j] = False
        r *= alive  # the stale rows and columns of P meet zeros, also after later cancellations
        ok &= downdate_inverse_batch(p, j)
        metric = np.where(alive, np.diagonal(p, axis1=1, axis2=2).real, np.inf)

    out[alive] = slice_indices(np.einsum("bij,bj->bi", p, r)[alive], c)  # the final linear block
    return out, orders, ok


def recompute_indices_batch(
    h: np.ndarray, y: np.ndarray, core: str, iterations: int, snr: SnrSpec, c: Constellation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched truncated V-BLAST that recomputes the nulling matrix at every iteration.

    The paper's receiver; ``detectors.vblast_detect`` runs it on a batch
    of one and ``policy.feedback_detect`` once per candidate count. Each
    iteration inverts the Gram matrix of the compacted, deflated channel
    afresh, so its cost scales the way the recomputing algorithm does.
    Returns ``(indices, orders, ok)`` as
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
        hh = h.conj().transpose(0, 2, 1)  # built once for the Gram matrix and G
        g, metric, ok_it, _ = nulling_batch(h, core, snr, hh)
        ok &= ok_it
        g = g @ hh  # G = P H^H; P is not kept into the next inversion
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


def count_bit_errors(tx_idx: np.ndarray, rx_idx: np.ndarray) -> int:
    """Total differing Gray-label bits between two index arrays."""
    return int(_POPCOUNT[np.bitwise_xor(tx_idx, rx_idx)].sum())
