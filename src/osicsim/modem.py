"""Gray-labelled QPSK and 16-QAM, bit packing, and the one nearest-point slicer.

Both constellations are Gray-labelled and normalised to unit average
energy. Points are stored in label order, so the index of a point equals
the integer value of its bit label (most significant bit first). Below
the bit source, every symbol is therefore carried as a point index:
modulation is ``c.points[bits_to_indices(bits, c)]``, detection returns
indices from :func:`slice_indices`, and the Hamming distance between two
labels is the popcount of the XOR of their indices.

Fixed labelings:

* QPSK: bits ``b1 b0`` map to ``((1 - 2*b1) + (1 - 2*b0) * 1j) / sqrt(2)``,
  i.e. ``00 -> (+1+1j)/sqrt(2)``, ``01 -> (+1-1j)/sqrt(2)``,
  ``10 -> (-1+1j)/sqrt(2)``, ``11 -> (-1-1j)/sqrt(2)``.
* 16-QAM: independent per-axis 2-bit Gray map
  ``{00: -3, 01: -1, 11: +1, 10: +3} / sqrt(10)``; the in-phase level comes
  from the high bit pair and the quadrature level from the low pair.

Slicing ties are broken by the lowest point index; with continuous noise
this is a measure-zero event and exists only to pin determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-axis Gray code for 16-QAM: adjacent levels differ in one bit.
_GRAY_PAIR_LEVELS = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}


@dataclass(frozen=True)
class Constellation:
    """A modulation alphabet in Gray-label order with unit average energy."""

    name: str
    points: np.ndarray
    bits_per_symbol: int

    def __post_init__(self):
        m = len(self.points)
        if m != 2 ** self.bits_per_symbol:
            raise ValueError("constellation size must be 2**bits_per_symbol")
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation mean energy {energy} is not 1")
        if len(set(self.points.tolist())) != m:
            raise ValueError("constellation points must be distinct")


def _make_qpsk() -> Constellation:
    pts = np.zeros(4, dtype=np.complex128)
    for idx in range(4):
        b1, b0 = (idx >> 1) & 1, idx & 1
        pts[idx] = ((1 - 2 * b1) + (1 - 2 * b0) * 1j) / np.sqrt(2.0)
    return Constellation("qpsk", pts, 2)


def _make_qam16() -> Constellation:
    pts = np.zeros(16, dtype=np.complex128)
    for idx in range(16):
        b3, b2, b1, b0 = (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        i_level = _GRAY_PAIR_LEVELS[(b3, b2)]
        q_level = _GRAY_PAIR_LEVELS[(b1, b0)]
        pts[idx] = (i_level + 1j * q_level) / np.sqrt(10.0)
    return Constellation("qam16", pts, 4)


QPSK = _make_qpsk()
QAM16 = _make_qam16()

CONSTELLATIONS = {"qpsk": QPSK, "qam16": QAM16}


def get_constellation(name: str) -> Constellation:
    try:
        return CONSTELLATIONS[name.lower()]
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
    return np.argmin(np.abs(np.asarray(z)[..., None] - c.points), axis=-1)
