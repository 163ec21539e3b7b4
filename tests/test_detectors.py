"""Tests for linear, V-BLAST and ML detectors.

Oracles used here and written independently of the implementation:
a straight-line re-derivation of the 2x2 MMSE chain, a nested-loop
exhaustive ML search, and numpy's own pinv for the high-SNR limit. The
exhaustive ML search under test is the oracle of ``oracles.py``; its
search bound and tie rule are tested in ``test_oracles.py``.
"""

import numpy as np
import pytest

from oracles import ml_candidates, ml_indices_batch, ml_search
from osicsim.batched import count_bit_errors, recompute_indices_batch
from osicsim.channel import SnrSpec, gen_channel_batch, gen_noise_batch, make_stream
from osicsim.detectors import nulling_matrix, vblast_detect
from osicsim.linalg import RankDeficiencyError
from osicsim.modem import QPSK, slice_indices

# QPSK labels 00 and 11: the points (1+1j)/sqrt(2) and (-1-1j)/sqrt(2)
IDX_00_11 = np.array([0, 3])


def rand_indices(rng, n, c):
    return rng.integers(0, len(c.points), n)


def draw_one_at_a_time(stream_seed, bit_seed, n_vec, n, snr):
    """``n_vec`` n x n QPSK transmissions, drawn one vector at a time (channel
    and noise from one stream, point indices from a second generator) and
    stacked for one batched detection."""
    rng = make_stream(stream_seed, 0)
    bit_rng = np.random.default_rng(bit_seed)
    hs, ys, idxs = [], [], []
    for _ in range(n_vec):
        h = gen_channel_batch(1, n, n, rng)[0]
        noise = gen_noise_batch(1, n, snr.noise_var, rng)[0]
        idx = bit_rng.integers(0, 4, n)
        hs.append(h)
        ys.append(h @ QPSK.points[idx] + noise)
        idxs.append(idx)
    return np.stack(hs), np.stack(ys), np.stack(idxs)


class TestNullingMatrix:
    def test_zf_identity(self):
        g, metric = nulling_matrix(np.eye(2), "zf", SnrSpec(10.0))
        assert np.allclose(g, np.eye(2))
        assert np.allclose(metric, [1.0, 1.0])

    def test_mmse_identity_unit_noise(self):
        # D = (I + I)^-1 = 0.5 I, G = 0.5 I, metric = [0.5, 0.5]
        g, metric = nulling_matrix(np.eye(2), "mmse", SnrSpec(0.0))
        assert np.allclose(g, 0.5 * np.eye(2))
        assert np.allclose(metric, [0.5, 0.5])

    def test_mmse_high_snr_matches_pinv(self):
        rng = np.random.default_rng(20)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g, _ = nulling_matrix(h, "mmse", SnrSpec(120.0))  # noise_var = 1e-12
        assert np.max(np.abs(g - np.linalg.pinv(h))) < 1e-6

    def test_zf_metric_is_row_norms_of_g(self):
        rng = np.random.default_rng(21)
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        g, metric = nulling_matrix(h, "zf", SnrSpec(10.0))
        assert np.allclose(metric, np.sum(np.abs(g) ** 2, axis=1))  # squared row norms

    def test_mmse_metric_is_real_diag_of_d(self):
        rng = np.random.default_rng(22)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        snr = SnrSpec(6.0)
        _, metric = nulling_matrix(h, "mmse", snr)
        d = np.linalg.inv(h.conj().T @ h + np.eye(3) * snr.noise_var)
        assert np.allclose(metric, np.diag(d).real)

    def test_rank_deficiency_surfaces(self):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficiencyError):
            nulling_matrix(h, "zf", SnrSpec(10.0))

    def test_unknown_core(self):
        with pytest.raises(ValueError, match="unknown nulling core"):
            nulling_matrix(np.eye(2), "ml", SnrSpec(10.0))
        with pytest.raises(ValueError, match="unknown nulling core"):
            vblast_detect(np.eye(2), np.ones(2), "ml", 0, SnrSpec(10.0), QPSK)


class TestLinearDetect:
    def test_identity_channel_noiseless(self):
        x = QPSK.points[IDX_00_11]
        for core in ("zf", "mmse"):
            out = vblast_detect(np.eye(2), x, core, 0, SnrSpec(120.0), QPSK)[0]
            assert np.array_equal(out, IDX_00_11)

    def test_noiseless_random_channel_zf_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            idx = rand_indices(rng, 4, QPSK)
            out = vblast_detect(h, h @ QPSK.points[idx], "zf", 0, SnrSpec(30.0), QPSK)[0]
            assert np.array_equal(out, idx)

    def test_against_straight_line_oracle_2x2(self):
        # independent re-derivation of the whole MMSE chain for one instance
        rng = np.random.default_rng(24)
        snr = SnrSpec(10.0)
        for _ in range(50):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = QPSK.points[rand_indices(rng, 2, QPSK)]
            noise = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * np.sqrt(snr.noise_var / 2)
            y = h @ x + noise
            out = vblast_detect(h, y, "mmse", 0, snr, QPSK)[0]

            d = np.linalg.inv(h.conj().T @ h + np.eye(2) / snr.snr_linear)
            z = d @ h.conj().T @ y
            expected = np.array([np.argmin(np.abs(zi - QPSK.points)) for zi in z])
            assert np.array_equal(out, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            vblast_detect(np.eye(2), np.ones(3), "zf", 0, SnrSpec(10.0), QPSK)


class TestVblastDetect:
    def test_zero_iterations_equals_linear(self):
        # degenerate equivalence, bit for bit, on 1e3 random instances
        rng = np.random.default_rng(25)
        snr = SnrSpec(8.0)
        for trial in range(1000):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x = QPSK.points[rand_indices(rng, 3, QPSK)]
            noise = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * np.sqrt(snr.noise_var / 2)
            y = h @ x + noise
            core = ("zf", "mmse")[trial % 2]
            indices, order = vblast_detect(h, y, core, 0, snr, QPSK)
            assert order == []
            g, _ = nulling_matrix(h, core, snr)
            assert np.array_equal(indices, slice_indices(g @ y, QPSK))

    def test_noiseless_perfect_any_iterations(self):
        rng = make_stream(30, 0)
        snr = SnrSpec(120.0)
        for trial in range(25):
            h = gen_channel_batch(1, 4, 4, rng)[0]
            idx = rand_indices(np.random.default_rng(trial), 4, QPSK)
            y = h @ QPSK.points[idx]
            for iters in range(4):
                for core in ("zf", "mmse"):
                    indices, _ = vblast_detect(h, y, core, iters, snr, QPSK)
                    assert np.array_equal(indices, idx), (core, iters)

    def test_diagonal_channel_detects_strong_stream_first(self):
        # pinv([[2,0],[0,1]]) has row norms [0.5, 1]; stream 0 (gain 2) first
        h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        indices, order = vblast_detect(h, h @ QPSK.points[IDX_00_11], "zf", 1, SnrSpec(20.0), QPSK)
        assert order == [0]
        assert np.array_equal(indices, IDX_00_11)

    def test_order_follows_pinv_row_norms_per_deflation(self):
        # noiseless fixed seed; re-derive the expected order step by step
        rng = make_stream(31, 0)
        h = gen_channel_batch(1, 4, 4, rng)[0]
        idx = rand_indices(np.random.default_rng(99), 4, QPSK)
        y = h @ QPSK.points[idx]
        indices, order = vblast_detect(h, y, "zf", 3, SnrSpec(60.0), QPSK)

        active = list(range(4))
        h_cur = h.copy()
        expected_order = []
        for _ in range(3):
            norms = np.sqrt(np.sum(np.abs(np.linalg.pinv(h_cur)) ** 2, axis=1))
            j = int(np.argmin(norms))
            expected_order.append(active[j])
            h_cur = np.delete(h_cur, j, axis=1)
            active.pop(j)
        assert order == expected_order
        assert np.array_equal(indices, idx)

    def test_trace_invariants(self):
        rng = make_stream(32, 0)
        snr = SnrSpec(12.0)
        h = gen_channel_batch(1, 4, 4, rng)[0]
        noise = gen_noise_batch(1, 4, snr.noise_var, rng)[0]
        x = QPSK.points[rand_indices(np.random.default_rng(5), 4, QPSK)]
        y = h @ x + noise
        for iters in range(4):
            _, order = vblast_detect(h, y, "mmse", iters, snr, QPSK)
            assert len(order) == iters
            assert len(set(order)) == iters

    def test_ordering_invariant_under_common_scaling(self):
        rng = make_stream(33, 0)
        snr = SnrSpec(10.0)
        scalar = 0.7 + 1.3j
        for _ in range(200):
            h = gen_channel_batch(1, 4, 4, rng)[0]
            noise = gen_noise_batch(1, 4, snr.noise_var, rng)[0]
            x = QPSK.points[rand_indices(np.random.default_rng(7), 4, QPSK)]
            y = h @ x + noise
            base = vblast_detect(h, y, "zf", 3, snr, QPSK)
            scaled = vblast_detect(scalar * h, scalar * y, "zf", 3, snr, QPSK)
            assert base[1] == scaled[1]
            assert np.array_equal(base[0], scaled[0])

    def test_iterations_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            vblast_detect(np.eye(4), np.ones(4), "zf", 4, SnrSpec(10.0), QPSK)
        with pytest.raises(ValueError, match="negative"):
            vblast_detect(np.eye(4), np.ones(4), "zf", -1, SnrSpec(10.0), QPSK)

    def test_monotone_quality_in_iterations(self):
        # shared draws across iteration counts; BER non-increasing within slack.
        # The engine behind vblast_detect detects them in one batch per count.
        snr = SnrSpec(12.0)
        n_vec = 6500  # >= 1e5 symbols guaranteed at 4 streams each... 26000 symbols
        h, y, idx = draw_one_at_a_time(34, 40, n_vec, 4, snr)
        errors = np.zeros(4, dtype=np.int64)
        for n_i in range(4):
            rx_idx, _, ok = recompute_indices_batch(h, y, "mmse", n_i, snr, QPSK)
            assert ok.all()
            errors[n_i] = count_bit_errors(idx, rx_idx)
        ber = errors / (8 * n_vec)
        for n_i in range(3):
            assert ber[n_i + 1] <= ber[n_i] * 1.15, ber


class TestMlDetect:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            idx = rand_indices(rng, 2, QPSK)
            assert np.array_equal(ml_search(h, h @ QPSK.points[idx], QPSK), idx)

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(27)
        snr = SnrSpec(8.0)
        for _ in range(50):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = QPSK.points[rand_indices(rng, 2, QPSK)]
            noise = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * np.sqrt(snr.noise_var / 2)
            y = h @ x + noise

            best, best_m = None, float("inf")
            for i0 in range(4):
                for i1 in range(4):
                    cand = np.array([QPSK.points[i0], QPSK.points[i1]])
                    m = float(np.sum(np.abs(y - h @ cand) ** 2))
                    if m < best_m:
                        best, best_m = [i0, i1], m
            assert ml_search(h, y, QPSK).tolist() == best


class TestOracleDominance:
    def test_ml_beats_vblast_beats_linear(self):
        # small matched run; the full-scale version lives in the acceptance suite.
        # Each detector detects the 4000 shared draws in one batch.
        snr = SnrSpec(12.0)
        h, y, idx = draw_one_at_a_time(35, 55, 4000, 2, snr)
        err = {"ml": count_bit_errors(idx, ml_indices_batch(h, y, ml_candidates(2, QPSK), QPSK))}
        for name, n_i in (("vblast", 1), ("linear", 0)):
            rx_idx, _, ok = recompute_indices_batch(h, y, "zf", n_i, snr, QPSK)
            assert ok.all()
            err[name] = count_bit_errors(idx, rx_idx)
        assert err["ml"] <= err["vblast"] * 1.10
        assert err["vblast"] <= err["linear"] * 1.10
