"""Gray-labelled QPSK and 16-QAM, bit packing, and the one nearest-point slicer.

Both constellations are Gray-labelled and normalised to unit average
energy. Points are stored in label order, so the index of a point equals
the integer value of its bit label (most significant bit first). Below
the bit source, every symbol is therefore carried as a point index:
modulation is ``c.points[bits_to_indices(bits, c)]``, detection returns
indices from :func:`slice_indices`, and the Hamming distance between two
labels is the popcount of the XOR of their indices.

Fixed labelings, both built by one square-QAM builder from the per-axis
levels in label order; the high half of a label picks the in-phase level
and the low half the quadrature level:

* QPSK: one bit per axis, ``{0: +1, 1: -1} / sqrt(2)``, so bits ``b1 b0``
  map to ``((1 - 2*b1) + (1 - 2*b0) * 1j) / sqrt(2)``, i.e.
  ``00 -> (+1+1j)/sqrt(2)``, ``01 -> (+1-1j)/sqrt(2)``,
  ``10 -> (-1+1j)/sqrt(2)``, ``11 -> (-1-1j)/sqrt(2)``.
* 16-QAM: a 2-bit Gray map per axis,
  ``{00: -3, 01: -1, 11: +1, 10: +3} / sqrt(10)``.

Both constellations are square grids, so the nearest point is the
nearest level on each axis: the squared distance is a sum of one real and
one imaginary term. :func:`slice_indices` finds each axis's level by
comparing the soft value with thresholds at the level midpoints
(``np.searchsorted``) and looks the pair up in a point table; the
thresholds and the table are built once per constellation from
``points``. Each threshold is the least float at least as near the upper
level as the lower one, decided exactly when it is built, so the slicer
returns the exactly nearest point for every finite soft value, with no
rounding of a distance (numpy's complex ``abs`` is not correctly rounded,
and overflows far out). Ties are broken by the lowest point index: on each
axis a value exactly midway goes to the level of the lower Gray label,
which for these per-axis labellings is the lowest index of the tied
points. With continuous noise a tie is a measure-zero event; the rule
exists only to pin determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class Constellation:
    """A modulation alphabet in Gray-label order with unit average energy."""

    name: str
    points: np.ndarray
    bits_per_symbol: int
    # (real-axis thresholds, imaginary-axis thresholds, point table) of slice_indices
    grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.points)
        if m != 2 ** self.bits_per_symbol:
            raise ValueError("constellation size must be 2**bits_per_symbol")
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation mean energy {energy} is not 1")
        if len(set(self.points.tolist())) != m:
            raise ValueError("constellation points must be distinct")
        object.__setattr__(self, "grid", _slicing_grid(self.points))


def _thresholds(levels: list, labels: np.ndarray) -> np.ndarray:
    """Per-axis slicing thresholds: ``x`` lies nearest ``levels[k]`` for ``k`` thresholds ``<= x``.

    Threshold ``k`` is the least float at least as near ``levels[k + 1]``
    as ``levels[k]``, found exactly (``fsum`` rounds ``2 mid - lo - hi``
    correctly, so its sign is exact); a float exactly midway goes to the
    level of lower ``labels``.
    """
    out = []
    for k, (lo, hi) in enumerate(zip(levels, levels[1:])):
        mid = (lo + hi) / 2
        err = math.fsum((2 * mid, -lo, -hi))
        up = err > 0 or (err == 0 and labels[k + 1] < labels[k])
        out.append(mid if up else np.nextafter(mid, np.inf))
    return np.array(out)


def _slicing_grid(points: np.ndarray) -> tuple:
    """Thresholds and point table of the per-axis slicer of a square grid constellation."""
    index = {(p.real, p.imag): i for i, p in enumerate(points.tolist())}
    re, im = (sorted({key[axis] for key in index}) for axis in (0, 1))
    table = np.array([[index[(a, b)] for b in im] for a in re])
    return _thresholds(re, table[:, 0]), _thresholds(im, table[0]), table


def _square_qam(name: str, levels: np.ndarray) -> Constellation:
    """Square QAM from its per-axis ``levels`` in label order.

    The high half of a label picks the in-phase level, the low half the
    quadrature level.
    """
    m = len(levels)
    idx = np.arange(m * m)
    return Constellation(name, levels[idx // m] + 1j * levels[idx % m], 2 * (m.bit_length() - 1))


QPSK = _square_qam("qpsk", np.array([1.0, -1.0]) / np.sqrt(2.0))
QAM16 = _square_qam("qam16", np.array([-3.0, -1.0, 3.0, 1.0]) / np.sqrt(10.0))

CONSTELLATIONS = {"qpsk": QPSK, "qam16": QAM16}


def get_constellation(name: str) -> Constellation:
    """The constellation spelled ``name``, exactly one of the keys of ``CONSTELLATIONS``."""
    try:
        return CONSTELLATIONS[name]
    except KeyError:
        raise ValueError(f"unknown modulation {name!r}, expected one of {sorted(CONSTELLATIONS)}") from None


def bits_to_indices(bits, c: Constellation) -> np.ndarray:
    """Pack groups of ``bits_per_symbol`` bits into point indices (MSB first)."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.size % c.bits_per_symbol:
        raise ValueError(
            f"bit count {bits.size} is not divisible by bits_per_symbol {c.bits_per_symbol}"
        )
    groups = bits.reshape(-1, c.bits_per_symbol).astype(np.int64)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    return groups @ weights


def slice_indices(z, c: Constellation) -> np.ndarray:
    """Index of the nearest constellation point to each soft symbol in ``z`` (lowest index on ties).

    ``z`` may be a scalar or an array of any shape; the result has its shape.
    """
    re, im, table = c.grid
    return table[np.searchsorted(re, np.real(z), side="right"), np.searchsorted(im, np.imag(z), side="right")]
