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

The cores, ``NULLING_CORES``, share one nulling formula: the regularized
Gram inverse ``P = (H^H H + lambda I)^-1`` with lambda = 0 for ZF and the
noise variance for MMSE, ordering metric ``diag P`` and nulling matrix
``G = P H^H``. The regularizer and the refusal of an unknown core are
written once, in ``_regularizer``; :func:`nulling_batch` builds and
inverts the Gram matrix and returns ``P`` itself rather than ``G``. Every
path slices with ``modem.slice_indices``, which this module re-exports.

There is one OSIC loop, :func:`_osic_indices`, and both receivers call
it. It works on the soft estimates ``s = P r`` of the matched-filter
output ``r = H^H y``, as the recursive detectors it follows do: each
detection slices entry ``j`` of ``s`` and updates ``s`` and ``diag P``
of the other streams from column ``j`` of the current inverse by the
block-inverse identities (the derivation is in its docstring); the final
linear block slices ``s`` on the surviving streams. No nulling row, no
cancellation in ``y`` and no ``G`` is formed. The receivers differ only
in where that column comes from. The sweep engine's
:func:`vblast_indices_batch` inverts once per vector, never writes to
that inverse, and rebuilds each column from ``P`` and the columns of the
earlier detections. The complexity benchmark's
:func:`recompute_indices_batch` is the paper's receiver: it builds the
Gram matrix once, deletes each detected stream's row and column from it,
and inverts the deflated Gram matrix afresh after every detection, so
its cost scales like the recomputing algorithm's; it reads the metric
and the column off each fresh inverse. In exact arithmetic the soft
values are those of nulling the cancelled ``y`` with the rows of the
deflated ``P H^H``; in floating point they differ in their last bits, so
a decision can differ only where a soft value lies within rounding of a
decision boundary. Tests pin the two receivers to each other on
detection orders, point indices and validity, pin each rebuilt column
and metric to the inverse residual bound of ``linalg`` against the
freshly deflated Gram matrix wherever a fresh Gauss-Jordan inverse meets
that bound itself (condition number below 1e6), and pin ``s`` to a
fresh solve of the cancelled problem. They also pin the recomputing
receiver to the textbook loop in ``tests/oracles.py``, which rebuilds
the Gram matrix and the whole ``G`` and nulls and cancels in ``y`` at
every iteration, on decisions and soft values. Ties in the ordering go
to the lowest original stream index in both receivers.

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


def _regularizer(core: str, snr: SnrSpec) -> float:
    """The nulling formula's lambda: 0 for ZF, the noise variance for MMSE.

    Raises ``ValueError`` for a core outside ``NULLING_CORES``.
    """
    if core not in NULLING_CORES:
        raise ValueError(f"unknown nulling core {core!r}")
    return snr.noise_var if core == "mmse" else 0.0


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
    gram = (h.conj().transpose(0, 2, 1) if hh is None else hh) @ h
    p, ok = inverse_batch(gram, _regularizer(core, snr))
    return p, np.diagonal(p, axis1=1, axis2=2).real.copy(), ok


def transmit_batch(h: np.ndarray, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Batched ``y = H x + n`` over instance-stacked arrays."""
    return np.einsum("bij,bj->bi", h, x) + noise


def _cancel_stream(p0, factors, at, e, s, d) -> np.ndarray:
    """One detection of :func:`_osic_indices`, in place on ``s`` and ``d``.

    ``at = j * batch + b`` picks the detected stream ``j[b]`` of every
    instance: column ``j`` of the last inverse ``P_0`` in the flat
    batch-last ``p0`` (``(n, n * batch)``), and entry ``j`` of the
    ``(n, batch)`` arrays ``s`` (soft estimates) and ``d`` (ordering
    metric). ``factors`` holds the columns ``c_m`` and reciprocal pivots
    ``1 / pi_m`` of the detections since that inversion, none on a fresh
    inverse. Appends column ``j`` of the current inverse,
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


def _from_inverse(p0: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The loop's state on a new inverse ``p0``, batch last (``(k, k, batch)``):
    the flat ``(k, k * batch)`` columns that :func:`_cancel_stream` reads, a
    copy of the real diagonal (the metric, ``(k, batch)``) and no factors."""
    k, _, batch = p0.shape
    return p0.reshape(k, k * batch), p0.reshape(k * k, batch)[:: k + 1].real.copy(), []


def _osic_indices(h, y, core, iterations, snr, c, fresh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The OSIC loop of both receivers, on soft estimates.

    With ``r = H^H y`` and ``P = G^-1`` for the regularized Gram matrix
    ``G``, the loop keeps the soft estimates ``s = P r`` of every stream
    and the ordering metric ``d = diag P``, both ``(streams, batch)``,
    batch last like the storage of ``P``, so one flat index
    ``j * batch + b`` gathers column ``j`` of ``P`` and every entry ``j``.
    Each detection takes the first minimum of ``d`` (ties go to the lowest
    original index), slices ``s_j``, records the order and the point index
    under the stream's original index, and :func:`_cancel_stream` updates
    ``s`` from column ``j`` of the current inverse and retires ``j``.
    Detecting stream ``j`` with decision ``x_j`` leaves the streams ``A``
    and the problem ``G_AA x_A = r_A - G_Aj x_j``. The block-inverse
    identities ``G_AA^-1 = P_AA - P_Aj P_jA / P_jj`` and
    ``G_AA^-1 G_Aj = -P_Aj / P_jj`` give its soft estimates exactly:
    ``G_AA^-1 (r_A - G_Aj x_j) = s_A + (P_Aj / P_jj)(x_j - s_j)``, and its
    metric ``d_A - |P_Aj|^2 / P_jj`` (Hassibi, ICASSP 2000; Benesty,
    Huang & Chen, IEEE TSP 2003). ``P`` is Hermitian, so ``P_jA`` is the
    conjugate of ``P_Aj`` and the pivot ``P_jj`` is real. These hold for
    any current inverse, so only its source differs:

    * ``fresh`` False, the sweep engine: :func:`nulling_batch` inverts
      once, and each column is rebuilt from ``P_0`` and the earlier
      columns in O(n k) per instance at step ``k``; ``P_0`` is never
      written. Detected streams keep their place, masked in ``d`` with
      ``+inf``, and the final linear block slices ``s`` on the streams
      whose metric is finite.
    * ``fresh`` True, the recomputing receiver: the Gram matrix is built
      once; each detection deletes stream ``j`` from it, from ``s`` and
      from ``active`` (the original indices of the undetected streams),
      and :func:`inverse_batch` inverts the deflated Gram matrix afresh,
      which gives the next metric and column. The final linear block
      slices the whole compacted ``s``, ``(batch, streams left)`` wide.

    ``ok`` is False where an inversion or a pivot failed; the outputs of
    such an instance are meaningless.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    batch, n_r, n_t = h.shape
    if iterations < 0:
        raise ValueError(f"iterations {iterations} is negative")
    if iterations > n_t - 1:
        raise ValueError(f"iterations {iterations} exceeds n_t - 1 = {n_t - 1}")

    rows = np.arange(batch)
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)
    if fresh:
        reg = _regularizer(core, snr)
        gram = h.conj().transpose(0, 2, 1) @ h
        p, ok = inverse_batch(gram, reg)
        active = np.arange(n_t).repeat(batch).reshape(n_t, batch)
    else:
        p, _, ok = nulling_batch(h, core, snr)
    p0 = p.transpose(1, 2, 0)  # batch last, as ``inverse_batch`` stores P
    s = np.einsum("ijb,bj->ib", p0, np.einsum("bri,br->bi", h, y.conj()).conj())  # P H^H y; no copy of H^H
    p0, d, factors = _from_inverse(p0)  # factors: (c_m, 1 / pi_m) of each detection since the inversion
    for it in range(iterations):
        j = np.argmin(d, axis=0)  # first minimum -> lowest original index
        at = j * batch + rows
        orders[:, it] = active.take(at) if fresh else j
        s_j = s.take(at)
        sidx = slice_indices(s_j, c)
        out[rows, orders[:, it]] = sidx
        ok &= _cancel_stream(p0, factors, at, c.points[sidx] - s_j, s, d)
        if fresh:
            k = n_t - it - 1  # streams left
            keep = np.arange(k + 1) != j[:, None]  # (batch, k + 1)
            s, active = (x.T[keep].reshape(batch, k).T for x in (s, active))
            gram = gram[keep[:, :, None] & keep[:, None, :]].reshape(batch, k, k)
            p, ok_it = inverse_batch(gram, reg)
            ok &= ok_it
            p0, d, factors = _from_inverse(p.transpose(1, 2, 0))

    if fresh:
        out[rows[:, None], active.T] = slice_indices(s.T, c)  # the final linear block
    else:
        alive = (d < np.inf).T  # detected streams hold +inf
        out[alive] = slice_indices(s.T[alive], c)
    return out, orders, ok


def vblast_indices_batch(
    h: np.ndarray, y: np.ndarray, core: str, iterations: int, snr: SnrSpec, c: Constellation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched truncated V-BLAST on soft estimates, with one inversion per vector.

    The sweep engine. Returns ``(indices, orders, ok)``: detected point
    indices per original stream, the per-instance detection order
    (original stream indices, shape ``(batch, iterations)``), and the
    validity mask. Inverts the regularized Gram matrix once and never
    writes to that inverse; each detection rebuilds the one column of the
    deflated inverse it needs (:func:`_osic_indices`), so no ``n x n``
    array is formed after the inversion.
    """
    return _osic_indices(h, y, core, iterations, snr, c, fresh=False)


def recompute_indices_batch(
    h: np.ndarray, y: np.ndarray, core: str, iterations: int, snr: SnrSpec, c: Constellation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched truncated V-BLAST that inverts the deflated Gram matrix afresh at every iteration.

    The paper's receiver; ``detectors.vblast_detect`` runs it on a batch
    of one and ``policy.feedback_detect`` once per candidate count. It
    builds the Gram matrix once, and after each detection inverts the
    regularized Gram matrix of the deflated channel with
    :func:`inverse_batch`, ``iterations + 1`` inversions in all, so its
    cost scales the way the recomputing algorithm does. It takes the
    metric and the cancelling column from each fresh inverse and updates
    the soft estimates by the same loop as :func:`vblast_indices_batch`
    (:func:`_osic_indices`). Returns ``(indices, orders, ok)`` as that
    does; ``ok`` is False wherever an inversion or a pivot failed.
    """
    return _osic_indices(h, y, core, iterations, snr, c, fresh=True)


def count_bit_errors(tx_idx: np.ndarray, rx_idx: np.ndarray) -> int:
    """Total differing Gray-label bits between two index arrays."""
    return int(_POPCOUNT[np.bitwise_xor(tx_idx, rx_idx)].sum())
