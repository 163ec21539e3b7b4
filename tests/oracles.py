"""References the detector tests hold the package's receivers to.

Exhaustive maximum-likelihood detection: the receiver ``osicsim``
simulates is truncated V-BLAST; ML is only the yardstick, so it lives
with the tests rather than in the package. :func:`ml_indices_batch`
searches the :func:`ml_candidates` list of every point-index vector and
keeps the one whose noiseless image ``H x`` lies nearest to ``y``; on a
tie the lowest candidate wins.

The textbook recomputing V-BLAST loop, :func:`recompute_reference`: at
every iteration it builds the Gram matrix of the compacted, deflated
channel and the whole nulling matrix ``G = P H^H`` afresh, nulls ``y``
with the detected stream's row of ``G`` and cancels the decision in
``y``, as the algorithm is usually written.
``batched.recompute_indices_batch`` keeps the Gram matrix and deletes
rows and columns from it, and updates the soft estimates ``P H^H y``
from a column of each fresh inverse instead of nulling and cancelling
in ``y``, so the two differ in the last bits of their soft values but
not in their decisions.
"""

from itertools import product

import numpy as np

from osicsim.batched import nulling_batch, slice_indices
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


def recompute_reference(h, y, core, iterations, snr, c, soft=None):
    """Truncated V-BLAST with the Gram matrix and ``G`` rebuilt at every iteration.

    Returns ``(indices, orders, ok)`` as
    ``batched.recompute_indices_batch`` does. If ``soft`` is a list, each
    detection appends its ``(batch,)`` soft values to it, and the final
    linear block its ``(batch, n_t - iterations)`` soft values in the
    order of the surviving streams.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.array(y, dtype=np.complex128)  # a copy: cancelled in place
    batch, n_r, n_t = h.shape

    rows = np.arange(batch)
    active = np.broadcast_to(np.arange(n_t), (batch, n_t))  # original indices of undetected streams
    out = np.zeros((batch, n_t), dtype=np.int64)
    orders = np.zeros((batch, iterations), dtype=np.int64)
    ok = np.ones(batch, dtype=bool)
    soft = [] if soft is None else soft
    for it in range(iterations + 1):  # the last round is the final linear block
        hh = h.conj().transpose(0, 2, 1)  # built once for the Gram matrix and G
        g, metric, ok_it = nulling_batch(h, core, snr, hh)
        ok &= ok_it
        g = g @ hh  # G = P H^H; P is not kept into the next inversion
        if it == iterations:
            break
        j = np.argmin(metric, axis=1)  # first minimum -> lowest original index
        soft.append((g[rows, j][:, None, :] @ y[:, :, None])[:, 0, 0])
        sidx = slice_indices(soft[-1], c)
        orders[:, it] = active[rows, j]
        out[rows, orders[:, it]] = sidx
        y -= h[rows, :, j] * c.points[sidx][:, None]
        keep = np.ones(active.shape, dtype=bool)
        keep[rows, j] = False
        active = active[keep].reshape(batch, -1)
        h = h[np.broadcast_to(keep[:, None, :], h.shape)].reshape(batch, n_r, -1)
    soft.append((g @ y[:, :, None])[:, :, 0])
    out[rows[:, None], active] = slice_indices(soft[-1], c)
    return out, orders, ok
