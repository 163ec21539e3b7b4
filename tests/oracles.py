"""Exhaustive maximum-likelihood detection: the reference the detector tests hold V-BLAST to.

The receiver ``osicsim`` simulates is truncated V-BLAST; ML is only the
yardstick, so it lives with the tests rather than in the package.
:func:`ml_indices_batch` searches the :func:`ml_candidates` list of every
point-index vector and keeps the one whose noiseless image ``H x`` lies
nearest to ``y``; on a tie the lowest candidate wins.
"""

from itertools import product

import numpy as np

from osicsim.modem import Constellation

# exhaustive-search guard for ml_candidates: at most 2**16 candidate vectors
ML_MAX_SEARCH_BITS = 16


class SearchSpaceError(ValueError):
    """Raised when the ML search space exceeds the exhaustive-search bound."""


def ml_candidates(n_t: int, c: Constellation) -> np.ndarray:
    """All ``|C|**n_t`` candidate point-index vectors in lexicographic order."""
    m = len(c.points)
    if n_t * c.bits_per_symbol > ML_MAX_SEARCH_BITS:
        raise SearchSpaceError(
            f"{m}**{n_t} candidates exceed the exhaustive bound of 2**{ML_MAX_SEARCH_BITS}"
        )
    return np.array(list(product(range(m), repeat=n_t)), dtype=np.int64)


def ml_indices_batch(
    h: np.ndarray, y: np.ndarray, cand_idx: np.ndarray, c: Constellation
) -> np.ndarray:
    """Batched exhaustive ML over precomputed candidate index vectors."""
    cand_sym = c.points[cand_idx]  # (P, n_t)
    hx = np.einsum("bij,pj->bpi", h, cand_sym)  # (batch, P, n_r)
    metric = np.sum(np.abs(y[:, None, :] - hx) ** 2, axis=2)
    best = np.argmin(metric, axis=1)
    return cand_idx[best]


def ml_search(h, y, c):
    """Exhaustive ML detection of one vector: a batch of one through :func:`ml_indices_batch`."""
    h, y = np.asarray(h, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    return ml_indices_batch(h[None], y[None], ml_candidates(h.shape[1], c), c)[0]
