"""Vectorized detection kernels: the package's one detection engine.

Each function works on a leading batch axis of independent channel
instances, which is what makes desk-scale BER sweeps take seconds
instead of hours. The Gauss-Jordan inverse, :func:`inverse_batch`,
belongs to ``linalg`` and is re-exported here; it pivots on the
diagonal, which is stable on the Hermitian positive definite Gram
matrices it is given, and scales by real reciprocals, since their pivots
are real. The scalar receiver,
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
``G``. Every path slices with ``modem.slice_indices``, which this module
re-exports. There are two OSIC loops. The complexity benchmark's
:func:`recompute_indices_batch` is the paper's receiver: it recomputes
``P`` and ``G = P H^H`` on the compacted, deflated channel at every
iteration, so its cost scales like the recomputing algorithm's. The sweep
engine's :func:`vblast_indices_batch` inverts once per vector and never
writes to that inverse: it works on the soft estimates ``s = P r`` of
the matched-filter output ``r = H^H y``, as the recursive detectors it
follows do. Each detection slices entry ``j`` of ``s``, rebuilds column
``j`` of the current inverse from ``P`` and the columns of the earlier
detections, and updates ``s`` and ``diag P`` of the other streams by the
block-inverse identities (the derivation is in its docstring); the final
linear block slices ``s`` on the surviving streams. In exact arithmetic
its soft values are those of nulling ``y`` with the rows of the deflated
``P H^H``; in floating point they differ in their last bits, so a
decision can differ only where a soft value lies within rounding of a
decision boundary. Tests pin the two loops to each other on detection
orders, point indices and validity, pin each rebuilt column and metric
to the inverse residual bound of ``linalg`` against the freshly deflated
Gram matrix wherever a fresh Gauss-Jordan inverse meets that bound
itself (condition number below 1e6), and pin ``s`` to a fresh solve of
the cancelled problem. Ties in the ordering go to the lowest original
stream index in both loops.

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched regularized Gram inverse and ordering metric.

    Returns ``(P, diag P, ok)`` with ``P = (H^H H + lambda I)^-1``
    (lambda = 0 for ZF, the noise variance for MMSE); the nulling matrix
    is ``G = P H^H``. ``P`` is a ``(batch, n, n)`` view of the batch-last
    storage that :func:`inverse_batch` returns. :func:`inverse_batch`
    adds lambda to the diagonal of its own copy of the Gram matrix, so no
    regularized copy is formed here, and the Gram matrix is freed on
    return. The regularized Gram matrix is Hermitian positive definite
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
    return p, np.diagonal(p, axis1=1, axis2=2).real.copy(), ok


def transmit_batch(h: np.ndarray, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Batched ``y = H x + n`` over instance-stacked arrays."""
    return np.einsum("bij,bj->bi", h, x) + noise


def _check_depth(iterations: int, n_t: int) -> None:
    """Refuse a detection count outside ``[0, n_t - 1]``."""
    if iterations < 0:
        raise ValueError(f"iterations {iterations} is negative")
    if iterations > n_t - 1:
        raise ValueError(f"iterations {iterations} exceeds n_t - 1 = {n_t - 1}")


def _cancel_stream(p0, factors, at, e, s, d) -> np.ndarray:
    """One detection of :func:`vblast_indices_batch`, in place on ``s`` and ``d``.

    ``at = j * batch + b`` picks the detected stream ``j[b]`` of every
    instance: column ``j`` of ``P_0`` in the flat batch-last ``p0``
    (``(n, n * batch)``), and entry ``j`` of the ``(n, batch)`` arrays
    ``s`` (soft estimates) and ``d`` (ordering metric). ``factors`` holds
    the earlier detections' columns ``c_m`` and reciprocal pivots
    ``1 / pi_m``. Appends column ``j`` of the current inverse,
    ``c = P_0[:, j] - sum_m c_m conj(c_m[j]) / pi_m``, with ``1 / pi``
    for ``pi = Re c[j]``, then updates ``s += c e / pi`` (``e`` is
    ``x_j - s_j``) and ``d -= |c|^2 / pi`` and masks ``d[j] = +inf``.
    Returns the pivot check: False where ``pi`` is not finite and
    positive, as it is on every Hermitian positive definite input. A
    flagged step stores the reciprocal 0, so where ``e`` and the column
    are finite it changes no surviving entry of ``s`` or ``d``.
    """
    col = np.take(p0, at, axis=1)  # column j of P_0, (n, batch)
    for c_m, w_m in factors:
        col -= c_m * (c_m.take(at).conj() * w_m)
    piv = col.take(at).real
    good = np.isfinite(piv) & (piv > 0.0)
    w_j = np.divide(1.0, piv, out=np.zeros_like(piv), where=good)
    factors.append((col, w_j))
    s += col * (e * w_j)
    d -= (col.real**2 + col.imag**2) * w_j
    d.put(at, np.inf)
    return good


def vblast_indices_batch(
    h: np.ndarray, y: np.ndarray, core: str, iterations: int, snr: SnrSpec, c: Constellation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched truncated V-BLAST on soft estimates, with one inversion per vector.

    Returns ``(indices, orders, ok)``: detected point indices per original
    stream, the per-instance detection order (original stream indices,
    shape ``(batch, iterations)``), and the validity mask.

    With ``r = H^H y`` and ``P = G^-1`` for the regularized Gram matrix
    ``G``, the loop keeps the soft estimates ``s = P r`` of every stream
    and the ordering metric ``d = diag P``. Detecting stream ``j`` with
    decision ``x_j`` leaves the streams ``A`` and the problem
    ``G_AA x_A = r_A - G_Aj x_j``. The block-inverse identities
    ``G_AA^-1 = P_AA - P_Aj P_jA / P_jj`` and
    ``G_AA^-1 G_Aj = -P_Aj / P_jj`` give its soft estimates exactly:
    ``G_AA^-1 (r_A - G_Aj x_j) = s_A + (P_Aj / P_jj)(x_j - s_j)``, and its
    metric ``d_A - |P_Aj|^2 / P_jj``. So only column ``j`` of the current
    ``P`` is needed, and :func:`_cancel_stream` rebuilds it from ``P_0``
    and the earlier columns (the rank-one recursion of Hassibi, ICASSP
    2000, and Benesty, Huang & Chen, IEEE TSP 2003) in O(n k) per
    instance at step ``k``; no ``n x n`` array is formed after the
    inversion and ``P_0`` is never written. ``P`` is Hermitian, so
    ``P_jA`` is the conjugate of ``P_Aj`` and the pivot ``P_jj`` is
    real. Every array of the loop is ``(n, batch)``, batch last like the
    storage of ``P_0``, so one flat index ``j * batch + b`` gathers the
    column and every entry ``j``. The detected stream's metric is masked
    with ``+inf``; streams keep their original indices, and ties go to
    the lowest. The final linear block slices ``s`` on the surviving
    streams, those whose metric is finite. ``ok`` is False where the
    inversion or a pivot failed; the outputs of such an instance are
    meaningless.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    batch, n_r, n_t = h.shape
    _check_depth(iterations, n_t)

    rows = np.arange(batch)
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)

    p, metric, ok = nulling_batch(h, core, snr)
    p0 = p.transpose(1, 2, 0)  # batch last, as ``inverse_batch`` stores P
    s = np.einsum("ijb,bj->ib", p0, np.einsum("bri,br->bi", h, y.conj()).conj())  # P H^H y; no copy of H^H
    p0 = p0.reshape(n_t, n_t * batch)  # column j of instance b at j * batch + b
    d = np.ascontiguousarray(metric.T)
    factors = []  # (c_m, 1 / pi_m) of each detection
    for it in range(iterations):
        j = np.argmin(d, axis=0)  # first minimum -> lowest original index
        at = j * batch + rows
        orders[:, it] = j
        s_j = s.take(at)
        sidx = slice_indices(s_j, c)
        out[rows, j] = sidx
        ok &= _cancel_stream(p0, factors, at, c.points[sidx] - s_j, s, d)

    alive = (d < np.inf).T  # detected streams hold +inf
    out[alive] = slice_indices(s.T[alive], c)  # the final linear block
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
    _check_depth(iterations, n_t)

    rows = np.arange(batch)
    active = np.broadcast_to(np.arange(n_t), (batch, n_t))  # original indices of undetected streams
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)
    ok = np.ones(batch, dtype=bool)
    for it in range(iterations + 1):  # the last round is the final linear block
        hh = h.conj().transpose(0, 2, 1)  # built once for the Gram matrix and G
        g, metric, ok_it = nulling_batch(h, core, snr, hh)
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
