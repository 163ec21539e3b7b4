"""Tests for the complex-matrix kernels.

The Moore-Penrose identities and inversion residuals act as their own
oracles. ``inverse`` is checked on general square matrices and
``inverse_batch``, which pivots on the diagonal, on Hermitian positive
definite ones. The pseudo-inverse contract is checked on the ZF nulling
matrix, ``(A^H A)^-1 A^H`` built on ``inverse_batch``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osicsim.batched import inverse_batch
from osicsim.channel import SnrSpec
from osicsim.detectors import nulling_matrix
from osicsim.linalg import RankDeficiencyError, SingularMatrixError, _inverse_pivoting_batch, inverse


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def gram_with_condition(rng, n, cond, count):
    """``count`` Hermitian ``H^H H`` of condition number ``cond``: ``H = U diag(s) V^H``
    with random unitary ``U``, ``V`` and singular values from 1 down to ``cond**-0.5``."""
    s = np.geomspace(1.0, cond**-0.5, n)
    out = []
    for _ in range(count):
        h = (unitary(rng, n) * s) @ unitary(rng, n).conj().T
        out.append(h.conj().T @ h)
    return np.stack(out)


def penrose_residuals(a, p):
    """The four Moore-Penrose residuals, relative where meaningful."""
    apa = a @ p @ a
    pap = p @ a @ p
    pa = p @ a
    ap = a @ p
    r1 = np.linalg.norm(apa - a) / np.linalg.norm(a)
    r2 = np.linalg.norm(pap - p) / np.linalg.norm(p)
    r3 = np.linalg.norm(pa.conj().T - pa) / max(1.0, np.linalg.norm(pa))
    r4 = np.linalg.norm(ap.conj().T - ap) / max(1.0, np.linalg.norm(ap))
    return r1, r2, r3, r4


def zf_nulling(a):
    """The ZF nulling matrix of ``a``, which must be its pseudo-inverse."""
    return nulling_matrix(a, "zf", SnrSpec(0.0))[0]


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = inverse([[2, 0], [0, 4]])
        assert np.allclose(out, [[0.5, 0], [0, 0.25]])

    def test_residual_on_random_well_conditioned(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rand_complex(rng, 4, 4)
            if np.linalg.cond(a) >= 1e8:
                continue
            res = np.linalg.norm(a @ inverse(a) - np.eye(4))
            assert res < 1e-9

    @pytest.mark.parametrize("impl", ["inverse", "inverse_batch"])
    def test_residual_on_8x8_gram_at_condition_1e6(self, impl):
        """The documented domain's edge, on the matrices the detectors invert."""
        a = gram_with_condition(np.random.default_rng(7), 8, 1e6, 100)
        assert np.allclose(np.linalg.cond(a), 1e6, rtol=1e-3)
        if impl == "inverse":
            inv = np.stack([inverse(x) for x in a])
        else:
            inv, ok = inverse_batch(a)
            assert ok.all()
        residual = np.linalg.norm(a @ inv - np.eye(8), axis=(1, 2))
        assert residual.max() < 1e-9, residual.max()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        log_cond=st.floats(0.0, 6.0, exclude_max=True),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_residual_property_below_condition_1e6(self, seed, n, log_cond, log_scale):
        """The documented tolerance on random complex matrices ``U diag(s) V^H``
        of condition number below 1e6 and any scale, inverted as a batch by
        the partial-pivoting loop and one at a time (``inverse``, a batch of
        one), which agree exactly."""
        rng = np.random.default_rng(seed)
        s = 10.0**log_scale * np.geomspace(1.0, 10.0**-log_cond, n)
        a = np.stack([(unitary(rng, n) * s) @ unitary(rng, n).conj().T for _ in range(4)])
        assume((np.linalg.cond(a) < 1e6).all())
        inv, ok = _inverse_pivoting_batch(a)
        assert ok.all()
        for b in range(4):
            want = inverse(a[b])
            assert np.linalg.norm(a[b] @ want - np.eye(n)) < 1e-9
            assert np.array_equal(inv[b], want)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            inverse(a)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            inverse(np.ones((2, 3)))

    def test_nan_rejected(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            inverse(a)

    def test_inf_rejected(self):
        a = np.eye(3, dtype=complex)
        a[0, 2] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            inverse(a)

    def test_needs_pivoting(self):
        # zero in the leading position forces a row swap
        a = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
        assert np.linalg.norm(a @ inverse(a) - np.eye(2)) < 1e-12


class TestInverseBatch:
    """Diagonal pivots on Hermitian positive definite stacks."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        log_cond=st.floats(0.0, 6.0, exclude_max=True),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_residual_property_below_condition_1e6(self, seed, n, log_cond, log_scale):
        """The documented tolerance on random Hermitian positive definite
        matrices ``U diag(s) U^H`` of condition number below 1e6 and any
        scale, inverted as a batch and one at a time (a batch of one),
        which agree exactly."""
        rng = np.random.default_rng(seed)
        s = 10.0**log_scale * np.geomspace(1.0, 10.0**-log_cond, n)
        u = [unitary(rng, n) for _ in range(4)]
        a = np.stack([(x * s) @ x.conj().T for x in u])
        assume((np.linalg.cond(a) < 1e6).all())
        inv, ok = inverse_batch(a)
        assert ok.all()
        for b in range(4):
            one, ok_one = inverse_batch(a[b : b + 1])
            assert ok_one[0]
            assert np.linalg.norm(a[b] @ one[0] - np.eye(n)) < 1e-9
            assert np.array_equal(inv[b], one[0])

    def test_flags_singular_indefinite_and_nan(self):
        """Without pivoting, an instance is inverted only where every pivot is
        clearly positive: a singular, an indefinite (``[[0, 1], [1, 1]]``,
        which ``inverse`` inverts with a row swap) and a NaN instance are
        flagged, and their neighbours are inverted."""
        a = np.array(
            [
                [[2.0, 1.0j], [-1.0j, 2.0]],
                [[1.0, 2.0], [2.0, 4.0]],
                [[0.0, 1.0], [1.0, 1.0]],
                [[np.nan, 0.0], [0.0, 1.0]],
                [[4.0, 0.0], [0.0, 0.25]],
            ],
            dtype=complex,
        )
        inv, ok = inverse_batch(a)
        assert ok.tolist() == [True, False, False, False, True]
        for b in (0, 4):
            assert np.allclose(inv[b], np.linalg.inv(a[b]))
        assert np.linalg.norm(a[2] @ inverse(a[2]) - np.eye(2)) < 1e-12

    def test_non_finite_off_the_diagonal_and_zero_flagged(self):
        """The threshold reads only the diagonal, so NaN or inf entries off it
        leave the threshold finite; they reach a later pivot, which flags the
        instance. An all-zero instance has a threshold of 0 and is flagged too.
        The neighbours equal their batches of one."""
        a = gram_with_condition(np.random.default_rng(11), 3, 1e3, 6)
        a[1, 0, 2] = a[1, 2, 0] = np.nan
        a[3, 0, 1] = complex(np.inf, 1.0)
        a[3, 1, 0] = complex(np.inf, -1.0)
        a[4] = 0.0
        with np.errstate(invalid="ignore"):  # inf times 0 in the flagged instance
            inv, ok = inverse_batch(a)
        assert ok.tolist() == [True, False, True, False, False, True]
        for b in (0, 2, 5):
            one, ok_one = inverse_batch(a[b : b + 1])
            assert ok_one[0]
            assert np.array_equal(inv[b], one[0])

    def test_infinite_threshold_flagged(self):
        """A 1x1 ``[[inf]]`` instance meets no later pivot, so its threshold,
        inf, flags it; the neighbours equal their batches of one."""
        a = np.array([[[2.0]], [[np.inf]], [[0.25]]], dtype=complex)
        inv, ok = inverse_batch(a)
        assert ok.tolist() == [True, False, True]
        for b in (0, 2):
            one, ok_one = inverse_batch(a[b : b + 1])
            assert ok_one[0]
            assert np.array_equal(inv[b], one[0])


class TestPinv:
    """The ZF nulling matrix is the Moore-Penrose pseudo-inverse."""

    def test_identity(self):
        assert np.allclose(zf_nulling(np.eye(4)), np.eye(4))

    def test_tall_ones_column(self):
        # (A^H A)^-1 A^H with A = [[1], [1]]: A^H A = 2, so P = [[0.5, 0.5]]
        out = zf_nulling([[1.0], [1.0]])
        assert np.allclose(out, [[0.5, 0.5]])

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(7)
        a = rand_complex(rng, 6, 4)
        residuals = penrose_residuals(a, zf_nulling(a))
        assert max(residuals) < 1e-8

    def test_penrose_identities_many_shapes(self):
        rng = np.random.default_rng(8)
        for rows, cols in [(2, 2), (4, 3), (8, 8), (10, 6), (16, 16), (5, 1)]:
            for _ in range(5):
                a = rand_complex(rng, rows, cols)
                residuals = penrose_residuals(a, zf_nulling(a))
                assert max(residuals) < 1e-8, (rows, cols)

    def test_matches_inverse_on_square(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rand_complex(rng, 5, 5)
            p = zf_nulling(a)
            inv = inverse(a)
            assert np.linalg.norm(p - inv) / np.linalg.norm(inv) < 1e-8

    def test_rank_deficient_raises(self):
        a = np.ones((4, 2), dtype=complex)  # duplicated columns
        with pytest.raises(RankDeficiencyError):
            zf_nulling(a)

    def test_nan_rejected(self):
        a = np.ones((3, 2), dtype=complex)
        a[2, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            zf_nulling(a)
