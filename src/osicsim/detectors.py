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

The loop itself is ``batched.recompute_indices_batch``, the package's one
recomputing OSIC loop: :func:`vblast_detect` runs it on a batch of one,
and :func:`nulling_matrix` builds on ``linalg.inverse``, itself a
batch-of-one view of ``linalg.inverse_batch``. Both names stay for the
benchmark's bindings and the tests of their contract. Cancellation
removes the detected column physically (with an index map back to
original stream order) rather than zeroing it: a zeroed column would make
the deflated Gram matrix singular. The nulling matrix is recomputed from
scratch on every deflation; no rank-one update shortcuts are used, so
measured cost scales the way the recomputing algorithm is specified to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .batched import recompute_indices_batch
from .channel import SnrSpec
from .linalg import RankDeficiencyError, SingularMatrixError, inverse
from .modem import Constellation

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
    Raises :class:`RankDeficiencyError` when a (regularized) Gram matrix
    along the way is singular.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.size != h.shape[0]:
        raise ValueError(f"dimension mismatch: y has {y.size} entries, channel has {h.shape[0]} rows")
    indices, orders, ok = recompute_indices_batch(h[None], y[None], spec.core, spec.iterations, snr, c)
    if not ok[0]:
        raise RankDeficiencyError("a regularized Gram matrix of the deflated channel is singular")
    return DetectionTrace(order=orders[0].tolist(), indices=indices[0])


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

