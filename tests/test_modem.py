"""Tests for the constellations, bit packing and the nearest-point slicer.

Symbols are point indices below the bit source, and a point's index is
the integer value of its Gray label, so labels are checked here through
``bits_to_indices``, the popcount of ``i ^ j`` and ``count_bit_errors``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osicsim.batched import count_bit_errors
from osicsim.modem import QAM16, QPSK, bits_to_indices, get_constellation, slice_indices


def brute_force_nearest(z, c):
    """Independent slicing oracle: scan all points, keep the first minimum.

    It measures distance with numpy's vectorized complex ``abs``, as the
    slicer does. That ``abs`` is not always correctly rounded: it can sit
    one ulp away from Python's ``abs``, which at ``|z|`` near 3e8 already
    reorders two nearly equidistant points. The oracle checks the scan and
    the tie rule, not the rounding of the metric.
    """
    best, best_d = 0, float("inf")
    for i, d in enumerate(np.abs(z - c.points)):
        if d < best_d:
            best, best_d = i, d
    return best


def label_bits(idx, c):
    """The Gray label of point ``idx`` as a list of bits, most significant first."""
    return [int(b) for b in format(int(idx), f"0{c.bits_per_symbol}b")]


def modulate(bits, c):
    """Bits to points the way the harness maps them: pack into indices, look up."""
    return c.points[bits_to_indices(bits, c)]


def popcount(v):
    return bin(int(v)).count("1")


class TestConstellations:
    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_unit_average_energy(self, c):
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_points_distinct(self, c):
        assert len(np.unique(c.points)) == len(c.points)

    def test_lookup_by_name(self):
        assert get_constellation("QPSK") is QPSK
        assert get_constellation("qam16") is QAM16
        with pytest.raises(ValueError, match="unknown modulation"):
            get_constellation("qam64")

    def test_qpsk_gray_adjacency(self):
        # neighbouring quadrants (one sign flip) differ in exactly one bit
        for i in range(4):
            for j in range(4):
                pi, pj = QPSK.points[i], QPSK.points[j]
                flips = int(pi.real != pj.real) + int(pi.imag != pj.imag)
                if flips == 1:
                    assert popcount(i ^ j) == 1

    def test_qam16_gray_adjacency_full_grid(self):
        # axis-adjacent points (distance 2/sqrt(10) along one axis) differ in one bit
        step = 2.0 / np.sqrt(10.0)
        for i in range(16):
            for j in range(16):
                d = QAM16.points[i] - QAM16.points[j]
                if (abs(abs(d.real) - step) < 1e-12 and abs(d.imag) < 1e-12) or (
                    abs(abs(d.imag) - step) < 1e-12 and abs(d.real) < 1e-12
                ):
                    assert popcount(i ^ j) == 1, (i, j)


class TestModulate:
    def test_qpsk_00(self):
        out = modulate([0, 0], QPSK)
        assert out[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qpsk_full_map(self):
        expected = {
            (0, 0): (1 + 1j), (0, 1): (1 - 1j), (1, 0): (-1 + 1j), (1, 1): (-1 - 1j),
        }
        for bits, raw in expected.items():
            assert modulate(list(bits), QPSK)[0] == pytest.approx(raw / np.sqrt(2))

    def test_qam16_0000(self):
        out = modulate([0, 0, 0, 0], QAM16)
        assert out[0] == pytest.approx((-3 - 3j) / np.sqrt(10))

    def test_qam16_axis_examples(self):
        # per-axis Gray map {00:-3, 01:-1, 11:+1, 10:+3}/sqrt(10)
        assert modulate([1, 0, 0, 1], QAM16)[0] == pytest.approx((3 - 1j) / np.sqrt(10))
        assert modulate([1, 1, 1, 0], QAM16)[0] == pytest.approx((1 + 3j) / np.sqrt(10))

    def test_empty(self):
        assert modulate([], QPSK).size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="not divisible"):
            bits_to_indices([0, 1, 0], QPSK)
        with pytest.raises(ValueError, match="not divisible"):
            bits_to_indices([0, 1, 0], QAM16)


class TestSlice:
    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_exact_point_is_fixed(self, c):
        assert np.array_equal(slice_indices(c.points, c), np.arange(len(c.points)))

    def test_qpsk_near_first_quadrant(self):
        z = 0.9 + 0.1j
        assert slice_indices(z, QPSK) == brute_force_nearest(z, QPSK) == 0

    def test_qam16_origin_tie_break(self):
        # four inner points are equidistant from 0; lowest index wins
        idx = slice_indices(0.0, QAM16)
        inner = [i for i in range(16) if abs(abs(QAM16.points[i].real) - 1 / np.sqrt(10)) < 1e-12
                 and abs(abs(QAM16.points[i].imag) - 1 / np.sqrt(10)) < 1e-12]
        d = np.abs(0.0 - QAM16.points[inner])
        assert np.all(d == d[0])  # an exact 4-way tie
        assert idx == min(inner)
        assert brute_force_nearest(0.0, QAM16) == idx

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_axis_ties_go_to_lowest_index(self, c):
        """A point's projection on an axis is exactly as far from the point as
        from its mirror image, and the origin from the four inner points."""
        ties = [0j] + [complex(p.real, 0.0) for p in c.points] + [complex(0.0, p.imag) for p in c.points]
        for z in ties:
            d = np.abs(z - c.points)
            tied = np.flatnonzero(d == d.min())
            assert len(tied) == (4 if z == 0 else 2), z
            assert slice_indices(z, c) == tied.min() == brute_force_nearest(z, c), z

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_matches_brute_force_on_random_points(self, c):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        assert slice_indices(z, c).tolist() == [brute_force_nearest(zi, c) for zi in z]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        c=st.sampled_from([QPSK, QAM16]),
        z=st.one_of(
            st.complex_numbers(allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=4.0, allow_nan=False),
        ),
    )
    def test_matches_brute_force_for_any_finite_z(self, c, z):
        with np.errstate(over="ignore"):  # |z - p| overflows to inf near the float limit
            assert slice_indices(z, c) == brute_force_nearest(z, c)

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_idempotent(self, c):
        rng = np.random.default_rng(12)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        once = slice_indices(z, c)
        assert np.array_equal(slice_indices(c.points[once], c), once)


class TestDemodulate:
    """Demodulation is slicing back to the point index, which is the label."""

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_round_trip_random_bits(self, c):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, 10_000 * c.bits_per_symbol // 2, dtype=np.uint8)
        bits = bits[: bits.size - bits.size % c.bits_per_symbol]
        idx = slice_indices(modulate(bits, c), c)
        assert np.array_equal(np.concatenate([label_bits(i, c) for i in idx]), bits)

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_round_trip_exhaustive_single_symbols(self, c):
        for idx in range(len(c.points)):
            bits = label_bits(idx, c)
            assert bits_to_indices(bits, c).tolist() == [idx]
            assert slice_indices(modulate(bits, c), c).tolist() == [idx]

    def test_single_qpsk_symbol(self):
        assert slice_indices([(1 + 1j) / np.sqrt(2)], QPSK).tolist() == [0]

    def test_empty(self):
        assert slice_indices(np.zeros(0, dtype=complex), QPSK).size == 0

    def test_noisy_symbols_slice_first(self):
        # a perturbed point slices to the index, i.e. the label, of the point
        assert slice_indices([(1 + 1j) / np.sqrt(2) + 0.05 - 0.03j], QPSK).tolist() == [0]


class TestHammingErrors:
    """``count_bit_errors`` counts differing Gray-label bits between index arrays."""

    def test_equal(self):
        assert count_bit_errors(np.array([0, 5, 10, 15]), np.array([0, 5, 10, 15])) == 0

    def test_all_differ(self):
        assert count_bit_errors(np.array([0b0000]), np.array([0b1111])) == 4

    def test_against_naive_loop(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 16, 1000)
        b = rng.integers(0, 16, 1000)
        expected = sum(x != y for i, j in zip(a, b) for x, y in zip(label_bits(i, QAM16), label_bits(j, QAM16)))
        assert count_bit_errors(a, b) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.array([0, 1]), np.array([0, 1, 1]))
