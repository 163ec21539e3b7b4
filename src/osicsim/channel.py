"""Per-subcarrier Rayleigh flat-fading MIMO channel, AWGN and the SNR convention.

SNR convention
--------------
Transmit symbols have unit average energy per antenna and the noise at each
receive antenna is circularly-symmetric complex Gaussian with variance
``noise_var = 1 / snr_linear``. Under this normalisation the MMSE
regularizer ``I / SNR`` equals ``I * noise_var`` exactly, so the linear SNR
value is used literally by the detectors.

Randomness
----------
Every draw comes from a counter-based Philox4x64 generator keyed by the
pair ``(seed, stream)``; identical keys reproduce identical sequences
regardless of scheduling, which is what makes parallel Monte Carlo cells
deterministic. Gaussians are produced by the Box-Muller transform over the
generator's uniforms, so the whole sampling chain is specified by
``philox4x64 + box-muller`` and can be replicated outside this package
(:func:`standard_normal` spells out the order of draws). The transform
runs in place, writing cosine and sine straight into the interleaved
output, with the same floating-point operations as the textbook form;
complex samples are a ``complex128`` view of the scaled real pairs. The
bits are those of numpy's ``log``, ``sqrt``, ``cos`` and ``sin`` kernels, so
they are reproducible for a given numpy build.

The per-subcarrier model is K independent flat-fading MIMO channels; no
time-domain OFDM processing (IFFT, cyclic prefix) is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the ``rng`` record of every manifest; ``rerun`` replays only a manifest
# that carries this one, since another scheme's draws cannot be repeated
RNG_SCHEME = {"bit_generator": "philox4x64", "gaussian": "box-muller", "key_scheme": "(seed, stream)"}
RNG_ALGORITHM = f"{RNG_SCHEME['bit_generator']}+{RNG_SCHEME['gaussian']}"


@dataclass(frozen=True)
class SnrSpec:
    """Operating signal-to-noise ratio in dB, with derived linear forms."""

    snr_db: float

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def noise_var(self) -> float:
        return 1.0 / self.snr_linear


def link_snr(snr_db: float, n_t: int) -> SnrSpec:
    """Per-stream link spec for a nominal operating SNR.

    The nominal SNR axis used by sweeps, policies and calibration tables
    measures total received signal power over noise power at each receive
    antenna. With unit-energy symbols on ``n_t`` transmit antennas and
    unit-variance channel entries, the received signal power per antenna
    is ``n_t``, so the per-stream spec the detector sees is derated by
    ``10 log10(n_t)`` dB. The iteration-threshold calibration this package
    reproduces only lines up under this normalisation; the per-stream
    alternative shifts every BER curve left by the same offset.
    """
    if n_t < 1:
        raise ValueError(f"n_t must be positive, got {n_t}")
    return SnrSpec(snr_db - 10.0 * math.log10(n_t))


def make_stream(seed: int, stream: int) -> np.random.Generator:
    """Generator for an independent, scheduling-free random stream.

    Identical ``(seed, stream)`` pairs reproduce identical sequences;
    distinct pairs give statistically independent streams.
    """
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValueError("seed and stream must be unsigned 64-bit integers")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """N(0, 1) samples via the Box-Muller transform over ``rng`` uniforms.

    Pair ``k`` takes uniforms ``u1[k]``, ``u2[k]`` (two successive draws of
    ``(n + 1) // 2`` each) and yields ``r cos t``, ``r sin t`` with
    ``r = sqrt(-2 log(1 - u1))`` and ``t = 2 pi u2``, in that order.
    """
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    r = rng.random(pairs)
    np.subtract(1.0, r, out=r)  # (0, 1], keeps log finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = rng.random(pairs)
    t *= 2.0 * np.pi
    z = np.empty((pairs, 2))
    np.cos(t, out=z[:, 0])
    z[:, 0] *= r
    np.sin(t, out=z[:, 1])
    z[:, 1] *= r
    return z.reshape(-1)[:n].reshape(shape)


def complex_normal(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """CN(0, var) samples: each component is N(0, var/2), real then imaginary."""
    z = standard_normal(rng, tuple(shape) + (2,))
    z *= np.sqrt(var / 2.0)
    return z.view(np.complex128).reshape(shape)


def gen_channel_batch(count: int, n_r: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent ``n_r x n_t`` Rayleigh draws, shape ``(count, n_r, n_t)``.

    Entries are i.i.d. CN(0, 1). Requires ``n_r >= n_t >= 1`` so the
    detectors can separate all streams.
    """
    if not (n_r >= n_t >= 1):
        raise ValueError(f"invalid dimensions: need n_r >= n_t >= 1, got n_r={n_r}, n_t={n_t}")
    return complex_normal(rng, (count, n_r, n_t), 1.0)


def gen_noise_batch(count: int, n_r: int, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` AWGN vectors, shape ``(count, n_r)``."""
    if noise_var < 0:
        raise ValueError(f"noise variance must be non-negative, got {noise_var}")
    if noise_var == 0:
        return np.zeros((count, n_r), dtype=np.complex128)
    return complex_normal(rng, (count, n_r), noise_var)


def random_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform payload bits as a uint8 array."""
    return rng.integers(0, 2, count, dtype=np.uint8)
