"""Tests for linear, V-BLAST and ML detectors.

Oracles used here and written independently of the implementation:
a straight-line re-derivation of the 2x2 MMSE chain, a nested-loop
exhaustive ML search, and numpy's own pinv for the high-SNR limit.
"""

import numpy as np
import pytest

from osicsim.batched import count_bit_errors, ml_indices_batch
from osicsim.channel import SnrSpec, gen_channel_batch, gen_noise_batch, make_stream
from osicsim.detectors import (
    DetectorSpec,
    SearchSpaceError,
    ml_candidates,
    nulling_matrix,
    vblast_detect,
)
from osicsim.linalg import RankDeficiencyError
from osicsim.modem import QAM16, QPSK, slice_indices

# QPSK labels 00 and 11: the points (1+1j)/sqrt(2) and (-1-1j)/sqrt(2)
IDX_00_11 = np.array([0, 3])


def rand_indices(rng, n, c):
    return rng.integers(0, len(c.points), n)


def ml_search(h, y, c):
    """Exhaustive ML detection of one vector: a batch of one through ``ml_indices_batch``."""
    h, y = np.asarray(h, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    return ml_indices_batch(h[None], y[None], ml_candidates(h.shape[1], c), c)[0]


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


class TestLinearDetect:
    def test_identity_channel_noiseless(self):
        x = QPSK.points[IDX_00_11]
        for core in ("zf", "mmse"):
            out = vblast_detect(np.eye(2), x, DetectorSpec(core, 0), SnrSpec(120.0), QPSK).indices
            assert np.array_equal(out, IDX_00_11)

    def test_noiseless_random_channel_zf_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            idx = rand_indices(rng, 4, QPSK)
            out = vblast_detect(h, h @ QPSK.points[idx], DetectorSpec("zf", 0), SnrSpec(30.0), QPSK).indices
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
            out = vblast_detect(h, y, DetectorSpec("mmse", 0), snr, QPSK).indices

            d = np.linalg.inv(h.conj().T @ h + np.eye(2) / snr.snr_linear)
            z = d @ h.conj().T @ y
            expected = np.array([np.argmin(np.abs(zi - QPSK.points)) for zi in z])
            assert np.array_equal(out, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            vblast_detect(np.eye(2), np.ones(3), DetectorSpec("zf", 0), SnrSpec(10.0), QPSK)


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
            trace = vblast_detect(h, y, DetectorSpec(core, 0), snr, QPSK)
            assert trace.order == []
            g, _ = nulling_matrix(h, core, snr)
            assert np.array_equal(trace.indices, slice_indices(g @ y, QPSK))

    def test_noiseless_perfect_any_iterations(self):
        rng = make_stream(30, 0)
        snr = SnrSpec(120.0)
        for trial in range(25):
            h = gen_channel_batch(1, 4, 4, rng)[0]
            idx = rand_indices(np.random.default_rng(trial), 4, QPSK)
            y = h @ QPSK.points[idx]
            for iters in range(4):
                for core in ("zf", "mmse"):
                    trace = vblast_detect(h, y, DetectorSpec(core, iters), snr, QPSK)
                    assert np.array_equal(trace.indices, idx), (core, iters)

    def test_diagonal_channel_detects_strong_stream_first(self):
        # pinv([[2,0],[0,1]]) has row norms [0.5, 1]; stream 0 (gain 2) first
        h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        trace = vblast_detect(h, h @ QPSK.points[IDX_00_11], DetectorSpec("zf", 1), SnrSpec(20.0), QPSK)
        assert trace.order == [0]
        assert np.array_equal(trace.indices, IDX_00_11)

    def test_order_follows_pinv_row_norms_per_deflation(self):
        # noiseless fixed seed; re-derive the expected order step by step
        rng = make_stream(31, 0)
        h = gen_channel_batch(1, 4, 4, rng)[0]
        idx = rand_indices(np.random.default_rng(99), 4, QPSK)
        y = h @ QPSK.points[idx]
        trace = vblast_detect(h, y, DetectorSpec("zf", 3), SnrSpec(60.0), QPSK)

        active = list(range(4))
        h_cur = h.copy()
        expected_order = []
        for _ in range(3):
            norms = np.sqrt(np.sum(np.abs(np.linalg.pinv(h_cur)) ** 2, axis=1))
            j = int(np.argmin(norms))
            expected_order.append(active[j])
            h_cur = np.delete(h_cur, j, axis=1)
            active.pop(j)
        assert trace.order == expected_order
        assert np.array_equal(trace.indices, idx)

    def test_trace_invariants(self):
        rng = make_stream(32, 0)
        snr = SnrSpec(12.0)
        h = gen_channel_batch(1, 4, 4, rng)[0]
        noise = gen_noise_batch(1, 4, snr.noise_var, rng)[0]
        x = QPSK.points[rand_indices(np.random.default_rng(5), 4, QPSK)]
        y = h @ x + noise
        for iters in range(4):
            trace = vblast_detect(h, y, DetectorSpec("mmse", iters), snr, QPSK)
            assert len(trace.order) == iters
            assert len(set(trace.order)) == iters

    def test_ordering_invariant_under_common_scaling(self):
        rng = make_stream(33, 0)
        snr = SnrSpec(10.0)
        scalar = 0.7 + 1.3j
        for _ in range(200):
            h = gen_channel_batch(1, 4, 4, rng)[0]
            noise = gen_noise_batch(1, 4, snr.noise_var, rng)[0]
            x = QPSK.points[rand_indices(np.random.default_rng(7), 4, QPSK)]
            y = h @ x + noise
            base = vblast_detect(h, y, DetectorSpec("zf", 3), snr, QPSK)
            scaled = vblast_detect(scalar * h, scalar * y, DetectorSpec("zf", 3), snr, QPSK)
            assert base.order == scaled.order
            assert np.array_equal(base.indices, scaled.indices)

    def test_iterations_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            vblast_detect(np.eye(4), np.ones(4), DetectorSpec("zf", 4), SnrSpec(10.0), QPSK)
        with pytest.raises(ValueError):
            DetectorSpec("zf", -1)

    def test_monotone_quality_in_iterations(self):
        # shared draws across iteration counts; BER non-increasing within slack
        rng = make_stream(34, 0)
        snr = SnrSpec(12.0)
        n_vec = 6500  # >= 1e5 symbols guaranteed at 4 streams each... 26000 symbols
        bit_rng = np.random.default_rng(40)
        errors = np.zeros(4, dtype=np.int64)
        total = 0
        for _ in range(n_vec):
            h = gen_channel_batch(1, 4, 4, rng)[0]
            noise = gen_noise_batch(1, 4, snr.noise_var, rng)[0]
            idx = bit_rng.integers(0, 4, 4)
            x = QPSK.points[idx]
            y = h @ x + noise
            for n_i in range(4):
                trace = vblast_detect(h, y, DetectorSpec("mmse", n_i), snr, QPSK)
                errors[n_i] += count_bit_errors(idx, trace.indices)
            total += 8
        ber = errors / total
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

    def test_tie_goes_to_lowest_candidate(self):
        # y = 0 with the identity channel: all QPSK candidates are equidistant
        assert ml_search(np.eye(2), np.zeros(2), QPSK).tolist() == [0, 0]

    def test_search_space_guard(self):
        with pytest.raises(SearchSpaceError):
            ml_search(np.eye(8), np.zeros(8), QAM16)  # 8 * 4 = 32 bits > 16


class TestOracleDominance:
    def test_ml_beats_vblast_beats_linear(self):
        # small matched run; the full-scale version lives in the acceptance suite
        rng = make_stream(35, 0)
        snr = SnrSpec(12.0)
        n_vec = 4000
        bit_rng = np.random.default_rng(55)
        err = {"ml": 0, "vblast": 0, "linear": 0}
        for _ in range(n_vec):
            h = gen_channel_batch(1, 2, 2, rng)[0]
            noise = gen_noise_batch(1, 2, snr.noise_var, rng)[0]
            idx = bit_rng.integers(0, 4, 2)
            x = QPSK.points[idx]
            y = h @ x + noise
            outs = {
                "ml": ml_search(h, y, QPSK),
                "vblast": vblast_detect(h, y, DetectorSpec("zf", 1), snr, QPSK).indices,
                "linear": vblast_detect(h, y, DetectorSpec("zf", 0), snr, QPSK).indices,
            }
            for name, rx_idx in outs.items():
                err[name] += count_bit_errors(idx, rx_idx)
        assert err["ml"] <= err["vblast"] * 1.10
        assert err["vblast"] <= err["linear"] * 1.10
