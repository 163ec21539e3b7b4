"""MIMO detectors: the OSIC V-BLAST loop (linear detection at zero
iterations) and the candidate list of the exhaustive ML oracle.

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

Both detectors return constellation point indices, which equal the
integer values of the Gray labels.

Cancellation removes the detected column physically (with an index map
back to original stream order) rather than zeroing it: a zeroed column
would make the deflated Gram matrix singular. The nulling matrix is
recomputed from scratch on every deflation; no rank-one update shortcuts
are used, so measured cost scales the way the recomputing algorithm is
specified to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channel import SnrSpec
from .linalg import RankDeficiencyError, SingularMatrixError, inverse
from .modem import Constellation, slice_indices

NULLING_CORES = ("zf", "mmse")

# exhaustive-search guard for ml_candidates: at most 2**16 candidate vectors
ML_MAX_SEARCH_BITS = 16


class SearchSpaceError(ValueError):
    """Raised when the ML search space exceeds the exhaustive-search bound."""


@dataclass(frozen=True)
class DetectorSpec:
    """Which nulling core to use and how many cancellation iterations to run."""

    core: str
    iterations: int

    def __post_init__(self):
        if self.core not in NULLING_CORES:
            raise ValueError(f"unknown nulling core {self.core!r}, expected one of {NULLING_CORES}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be non-negative, got {self.iterations}")


@dataclass
class DetectionTrace:
    """Detection output plus the per-iteration bookkeeping of the OSIC loop."""

    order: list[int] = field(default_factory=list)
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def nulling_matrix(h, core: str, snr: SnrSpec):
    """Nulling matrix ``G`` and the stream-ordering metric for one channel.

    ``D = (h^H h + lambda I)^-1`` with ``lambda = 0`` for ZF and
    ``lambda = noise_var`` for MMSE; ``G = D h^H`` and the metric is the
    real diagonal of ``D`` (smaller = stronger stream). For ZF, ``G`` is
    the pseudo-inverse of ``h`` and ``diag D`` holds the squared row norms
    of ``G``. The imaginary part of ``diag(D)`` is discarded; ``D`` is
    Hermitian in exact arithmetic.

    Raises :class:`RankDeficiencyError` when the (regularized) Gram matrix
    is singular, as it is for a ZF channel without full column rank.
    """
    if core not in NULLING_CORES:
        raise ValueError(f"unknown nulling core {core!r}, expected one of {NULLING_CORES}")
    h = np.asarray(h, dtype=np.complex128)
    hh = h.conj().T
    reg = snr.noise_var if core == "mmse" else 0.0
    try:
        d = inverse(hh @ h + np.eye(h.shape[1]) * reg)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(f"regularized Gram matrix is singular: {exc}") from exc
    return d @ hh, np.diag(d).real.copy()


def vblast_detect(h, y, spec: DetectorSpec, snr: SnrSpec, c: Constellation) -> DetectionTrace:
    """Truncated V-BLAST: ``spec.iterations`` OSIC rounds, then linear detection.

    Returns a :class:`DetectionTrace` whose ``order`` lists the original
    indices of the successively detected streams and whose ``indices`` holds
    the detected point index of every stream, in original stream order.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128).ravel()
    n_r, n_t = h.shape
    if y.size != n_r:
        raise ValueError(f"dimension mismatch: y has {y.size} entries, channel has {n_r} rows")
    if spec.iterations > n_t - 1:
        raise ValueError(f"iterations {spec.iterations} exceeds n_t - 1 = {n_t - 1}")

    active = list(range(n_t))  # original indices of undetected streams, ascending
    h_cur = h.copy()
    y_cur = y.copy()
    trace = DetectionTrace(indices=np.zeros(n_t, dtype=np.int64))

    for _ in range(spec.iterations):
        g, metric = nulling_matrix(h_cur, spec.core, snr)
        j = int(np.argmin(metric))  # first minimum -> lowest original index on ties
        k = active.pop(j)
        i = slice_indices(g[j] @ y_cur, c)
        trace.order.append(k)
        trace.indices[k] = i
        y_cur = y_cur - h_cur[:, j] * c.points[i]
        h_cur = np.delete(h_cur, j, axis=1)

    if active:
        g, _ = nulling_matrix(h_cur, spec.core, snr)
        trace.indices[active] = slice_indices(g @ y_cur, c)

    return trace


def ml_candidates(n_t: int, c: Constellation) -> np.ndarray:
    """All ``|C|**n_t`` candidate point-index vectors in lexicographic order.

    ``batched.ml_indices_batch`` searches them exhaustively; on a tie the
    lowest candidate wins.
    """
    m = len(c.points)
    if n_t * c.bits_per_symbol > ML_MAX_SEARCH_BITS:
        raise SearchSpaceError(
            f"{m}**{n_t} candidates exceed the exhaustive bound of 2**{ML_MAX_SEARCH_BITS}"
        )
    return np.array(list(product(range(m), repeat=n_t)), dtype=np.int64)

