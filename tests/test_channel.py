"""Tests for channel generation, noise, streams and the SNR convention."""

import numpy as np
import pytest
from scipy import stats

from osicsim.batched import transmit_batch
from osicsim.channel import (
    SnrSpec,
    complex_normal,
    gen_channel_batch,
    gen_noise_batch,
    make_stream,
    random_bits,
    standard_normal,
)


class TestSnrSpec:
    def test_linear_and_noise_var(self):
        s = SnrSpec(20.0)
        assert s.snr_linear == pytest.approx(100.0)
        assert s.noise_var == pytest.approx(0.01)

    def test_regularizer_identity_exact(self):
        # I * noise_var must equal I * (1/SNR) exactly, bit for bit
        for db in [-3.0, 0.0, 7.5, 16.0, 34.0]:
            s = SnrSpec(db)
            lhs = np.eye(4) * s.noise_var
            rhs = np.eye(4) * (1.0 / s.snr_linear)
            assert np.array_equal(lhs, rhs)
            assert s.noise_var == 1.0 / s.snr_linear


def box_muller_from_spec(seed, stream, n):
    """``n`` N(0, 1) samples as the ``philox4x64+box-muller`` chain specifies
    them: ``(n + 1) // 2`` uniforms ``u1``, then as many ``u2``, from the
    Philox4x64 generator keyed ``[seed, stream]``; pair k yields
    ``r cos t`` then ``r sin t`` with ``r = sqrt(-2 log(1 - u1))`` and
    ``t = 2 pi u2``."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    pairs = (n + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    t = 2.0 * np.pi * u2
    return np.column_stack([r * np.cos(t), r * np.sin(t)]).ravel()[:n]


class TestBoxMullerChain:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001, 4096])
    def test_standard_normal_bits_match_spec(self, n):
        got = standard_normal(make_stream(11, n), (n,))
        want = box_muller_from_spec(11, n, n)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (64, 4, 4)])
    def test_complex_normal_bits_match_spec(self, shape):
        var = 0.3
        got = complex_normal(make_stream(12, 1), shape, var)
        z = box_muller_from_spec(12, 1, 2 * int(np.prod(shape))) * np.sqrt(var / 2.0)
        assert got.dtype == np.complex128 and got.shape == shape
        assert got.tobytes() == z.tobytes()  # real and imaginary parts interleaved


class TestStreams:
    def test_same_key_reproduces(self):
        a = make_stream(42, 7).random(16)
        b = make_stream(42, 7).random(16)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = make_stream(42, 7).random(16)
        b = make_stream(42, 8).random(16)
        assert not np.array_equal(a, b)

    def test_key_range_validated(self):
        with pytest.raises(ValueError):
            make_stream(-1, 0)
        with pytest.raises(ValueError):
            make_stream(0, 2**64)

    def test_stream_independence_chi_square(self):
        # quadrant counts of paired draws from two streams should be uniform;
        # fixed seed keeps this deterministic (threshold p > 1e-4)
        n = 20_000
        a = standard_normal(make_stream(3, 0), (n,))
        b = standard_normal(make_stream(3, 1), (n,))
        table = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                table[i, j] = np.sum(((a > 0) == i) & ((b > 0) == j))
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 1e-4


class TestGaussianSampling:
    def test_standard_normal_moments(self):
        z = standard_normal(make_stream(1, 0), (100_000,))
        assert abs(np.mean(z)) < 0.02
        assert abs(np.var(z) - 1.0) < 0.02

    def test_normality_sanity(self):
        z = standard_normal(make_stream(2, 0), (20_000,))
        # Kolmogorov-Smirnov against the standard normal CDF
        _, p = stats.kstest(z, "norm")
        assert p > 1e-4

    def test_complex_normal_var(self):
        z = complex_normal(make_stream(4, 0), (50_000,), 2.0)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(2.0, rel=0.03)
        # circular symmetry: components uncorrelated, equal variance
        assert abs(np.mean(z.real * z.imag)) < 0.02
        assert np.var(z.real) == pytest.approx(1.0, rel=0.05)

    def test_odd_shapes(self):
        z = standard_normal(make_stream(5, 0), (7, 3))
        assert z.shape == (7, 3)


class TestGenChannel:
    def test_shape(self):
        h = gen_channel_batch(3, 4, 2, make_stream(1, 0))
        assert h.shape == (3, 4, 2)
        assert h.dtype == np.complex128

    def test_moments_large_sample(self):
        h = gen_channel_batch(6250, 4, 4, make_stream(6, 0))  # 1e5 entries
        entries = h.ravel()
        assert abs(np.mean(entries)) < 0.02
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.02)
        # per-component variance 1/2
        assert np.var(entries.real) == pytest.approx(0.5, abs=0.02)

    def test_determinism(self):
        h1 = gen_channel_batch(5, 4, 2, make_stream(9, 3))
        h2 = gen_channel_batch(5, 4, 2, make_stream(9, 3))
        assert np.array_equal(h1, h2)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError, match="invalid dimensions"):
            gen_channel_batch(1, 2, 4, make_stream(1, 0))
        with pytest.raises(ValueError, match="invalid dimensions"):
            gen_channel_batch(3, 1, 0, make_stream(1, 0))


class TestGenNoise:
    def test_zero_variance_is_zero_vector(self):
        nb = gen_noise_batch(5, 8, 0.0, make_stream(1, 0))
        assert nb.shape == (5, 8)
        assert not nb.any()

    def test_moments(self):
        n = gen_noise_batch(12_500, 8, 2.0, make_stream(7, 0))  # 1e5 entries
        assert np.mean(np.abs(n) ** 2) == pytest.approx(2.0, abs=0.04)

    def test_negative_variance(self):
        with pytest.raises(ValueError, match="non-negative"):
            gen_noise_batch(2, 4, -0.5, make_stream(1, 0))

    def test_determinism(self):
        a = gen_noise_batch(3, 16, 1.0, make_stream(2, 5))
        b = gen_noise_batch(3, 16, 1.0, make_stream(2, 5))
        assert np.array_equal(a, b)


class TestTransmit:
    def test_identity_channel_no_noise(self):
        x = np.array([[1 + 1j, -1 + 0j]]) / np.sqrt(2)
        y = transmit_batch(np.eye(2)[None], x, np.zeros((1, 2)))
        assert np.array_equal(y, x)

    def test_zero_input_returns_noise(self):
        noise = np.array([[0.1 + 0.2j, -0.3j, 0.5]])
        y = transmit_batch(np.ones((1, 3, 2)), np.zeros((1, 2)), noise)
        assert np.array_equal(y, noise)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        noise = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        expected = np.zeros((5, 4), dtype=complex)
        for b in range(5):
            for i in range(4):
                acc = noise[b, i]
                for j in range(3):
                    acc += h[b, i, j] * x[b, j]
                expected[b, i] = acc
        assert np.max(np.abs(transmit_batch(h, x, noise) - expected)) < 1e-12


class TestRandomBits:
    def test_deterministic_and_binary(self):
        a = random_bits(make_stream(11, 0), 1000)
        b = random_bits(make_stream(11, 0), 1000)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}
        # roughly balanced
        assert 400 < a.sum() < 600
