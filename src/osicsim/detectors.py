"""The scalar V-BLAST receiver: the OSIC loop (linear detection at zero
iterations) and its nulling matrix, on one channel at a time.

The V-BLAST detector runs a configurable number of
ordering/nulling/slicing/cancellation iterations and then detects the
remaining streams jointly with the linear core. ``iterations = 0``
degenerates to the pure linear detector; ``iterations = n_t - 1`` is the
ordinary full V-BLAST.

Both cores share one nulling formula. Per iteration, on the current
deflated channel ``H_i``:

* ordering: ``D = (H_i^H H_i + lambda I)^-1`` with ``lambda = 0`` for the
  ZF core and ``lambda = noise_var`` for the MMSE core; pick the
  undetected stream with the smallest real diagonal entry of ``D``
  (ties go to the lowest original stream index). For ZF, ``G = D H_i^H``
  is the pseudo-inverse of ``H_i`` and ``diag D`` holds its squared row
  norms, so the order is that of the row norms;
* nulling: ``z = g_k . y_i`` with ``g_k`` the chosen row of ``G = D H_i^H``;
* slicing: ``modem.slice_indices`` maps ``z`` to the index of the
  nearest constellation point;
* cancellation: subtract that point times its channel column from ``y_i``
  and remove the column from ``H_i``.

The detector returns constellation point indices, which equal the
integer values of the Gray labels.

The loop itself is ``batched.recompute_indices_batch`` and the formula
``batched.nulling_batch``, the package's one recomputing OSIC loop and
one nulling formula: :func:`vblast_detect` and :func:`nulling_matrix`
run them on a batch of one and raise where the engine flags. Both names,
and the ``inverse`` import, stay only for the benchmark's bindings and the
tests of their contract.
Cancellation removes the detected column physically (with an index map
back to original stream order) rather than zeroing it: a zeroed column
would make the deflated Gram matrix singular. The loop deletes the
detected stream's row and column from the Gram matrix it built once,
and inverts the deflated Gram matrix from scratch on every deflation; no
rank-one update shortcuts are used, so measured cost scales the way the
recomputing algorithm is specified to.
"""

from __future__ import annotations

import numpy as np

from .batched import nulling_batch, recompute_indices_batch
from .channel import SnrSpec
from .linalg import RankDeficiencyError
from .modem import Constellation

# Unused here: the benchmark's tracer wraps this module's ``inverse`` binding
# (span ``linalg.inverse``) until its per-layer metrics stop reading it.
from .linalg import inverse  # noqa: F401


def nulling_matrix(h, core: str, snr: SnrSpec):
    """Nulling matrix ``G`` and the stream-ordering metric for one channel.

    ``batched.nulling_batch`` on a batch of one: ``D = (h^H h + lambda I)^-1``
    with ``lambda = 0`` for ZF and ``lambda = noise_var`` for MMSE;
    ``G = D h^H`` and the metric is the real diagonal of ``D`` (smaller =
    stronger stream). For ZF, ``G`` is the pseudo-inverse of ``h`` and
    ``diag D`` holds the squared row norms of ``G``. The imaginary part of
    ``diag(D)`` is discarded; ``D`` is Hermitian in exact arithmetic.

    Raises :class:`RankDeficiencyError` when the (regularized) Gram matrix
    is singular, as it is for a ZF channel without full column rank, and
    ``ValueError`` for a channel with NaN or Inf entries.
    """
    h = np.asarray(h, dtype=np.complex128)
    if not np.isfinite(h).all():
        raise ValueError("channel contains NaN or Inf entries")
    hh = h[None].conj().transpose(0, 2, 1)
    d, metric, ok = nulling_batch(h[None], core, snr, hh)
    if not ok[0]:
        raise RankDeficiencyError("regularized Gram matrix is singular")
    return d[0] @ hh[0], metric[0]


def vblast_detect(h, y, core: str, iterations: int, snr: SnrSpec, c: Constellation):
    """Truncated V-BLAST: ``iterations`` OSIC rounds, then linear detection.

    Returns ``(indices, order)``: the detected point index of every
    stream, in original stream order, and the list of original indices of
    the successively detected streams. Raises ``ValueError`` for an
    unknown ``core`` or a count outside ``[0, n_t - 1]``, and
    :class:`RankDeficiencyError` when a (regularized) Gram matrix along
    the way is singular.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size != h.shape[0]:
        raise ValueError(f"dimension mismatch: y has {y.size} entries, channel has {h.shape[0]} rows")
    indices, orders, ok = recompute_indices_batch(h[None], y[None], core, iterations, snr, c)
    if not ok[0]:
        raise RankDeficiencyError("a regularized Gram matrix of the deflated channel is singular")
    return indices[0], orders[0].tolist()

