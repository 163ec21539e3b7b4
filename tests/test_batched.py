"""The batched detection kernels: one engine, two OSIC loops.

The scalar names ``linalg.inverse`` and ``detectors.vblast_detect`` are
batch-of-one views of these kernels, so an instance's result must not
depend on the batch around it. The sweep engine's downdating loop and the
recomputing loop are different algorithms for the same receiver; they must
agree on the whole batch (same validity, ordering and point indices). The
downdating loop inverts the Gram matrix once and downdates the full-size
inverse in place per detected stream, so its own accuracy is checked
against freshly deflated Gram matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osicsim.batched as batched
from osicsim.batched import (
    count_bit_errors,
    downdate_inverse_batch,
    inverse_batch,
    nulling_batch,
    recompute_indices_batch,
    slice_indices,
    transmit_batch,
    vblast_indices_batch,
)
from osicsim.channel import SnrSpec, gen_channel_batch, gen_noise_batch, make_stream
from osicsim.detectors import DetectorSpec, nulling_matrix, vblast_detect
from osicsim.linalg import RankDeficiencyError, SingularMatrixError, inverse
from osicsim.modem import QAM16, QPSK


def random_batch(seed, batch, n_r, n_t, snr, c):
    rng = make_stream(seed, 0)
    h = gen_channel_batch(batch, n_r, n_t, rng)
    idx = np.random.default_rng(seed).integers(0, len(c.points), (batch, n_t))
    x = c.points[idx]
    noise = gen_noise_batch(batch, n_r, snr.noise_var, rng)
    y = transmit_batch(h, x, noise)
    return h, idx, x, y


def assert_loops_agree(h, y, core, iters, snr, c):
    """The downdating and the recomputing loop agree on the whole batch: the
    same validity mask, and the same orders and indices wherever it is set.
    Returns the mask."""
    idx, orders, ok = vblast_indices_batch(h, y, core, iters, snr, c)
    ref_idx, ref_orders, ref_ok = recompute_indices_batch(h, y, core, iters, snr, c)
    assert np.array_equal(ok, ref_ok), (core, iters)
    assert np.array_equal(orders[ok], ref_orders[ok]), (core, iters)
    assert np.array_equal(idx[ok], ref_idx[ok]), (core, iters)
    return ok


def downdate_reference(p, j):
    """Gather-based downdate to the compacted survivors: the survivor indices
    of each instance, then ``take_along_axis`` and a three-index gather. The
    surviving rows and columns of ``downdate_inverse_batch`` must hold
    exactly these values."""
    batch, n, _ = p.shape
    rows = np.arange(batch)
    piv = p[rows, j, j]
    ok = np.isfinite(piv) & (piv.real > 0.0)
    piv = np.where(ok, piv, 1.0)
    grid = np.broadcast_to(np.arange(n), (batch, n))
    keep = grid[grid != j[:, None]].reshape(batch, n - 1)
    col = np.take_along_axis(p[rows, :, j], keep, axis=1)
    row = np.take_along_axis(p[rows, j, :], keep, axis=1) / piv[:, None]
    sub = p[rows[:, None, None], keep[:, :, None], keep[:, None, :]]
    return sub - col[:, :, None] * row[:, None, :], ok


class TestInverseBatch:
    def test_matches_scalar(self):
        rng = make_stream(50, 0)
        a = gen_channel_batch(64, 6, 6, rng)
        inv, ok = inverse_batch(a)
        assert ok.all()
        for b in range(64):
            assert np.allclose(inv[b], inverse(a[b]), atol=1e-12, rtol=1e-10)

    def test_flags_singular_instances(self):
        rng = make_stream(51, 0)
        a = gen_channel_batch(8, 4, 4, rng)
        a[3] = 0.0
        a[5, :, 2] = a[5, :, 1]  # duplicated column
        inv, ok = inverse_batch(a)
        assert not ok[3] and not ok[5]
        good = [b for b in range(8) if b not in (3, 5)]
        assert ok[good].all()
        for b in good:
            assert np.allclose(inv[b], inverse(a[b]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            inverse_batch(np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", ["gram", "general"])
    def test_equals_scalar_exactly(self, n, kind):
        """An instance's inverse does not depend on its batch: ``inverse``, a
        batch of one, gives equal values, on instances with and without row
        swaps, next to dead ones."""
        a = gen_channel_batch(64, n, n, make_stream(70 + n, 0))
        if kind == "gram":
            a = a.conj().transpose(0, 2, 1) @ a
        a[3] = 0.0
        a[5, :, n - 1] = a[5, :, 0]  # duplicated column
        swapped = np.argmax(np.abs(a[:, :, 0]), axis=1) != 0
        assert swapped.any() and not swapped.all()
        inv, ok = inverse_batch(a)
        assert ok.tolist() == [b not in (3, 5) for b in range(64)]
        for b in range(64):
            if ok[b]:
                assert np.array_equal(inv[b], inverse(a[b])), b
            else:
                with pytest.raises(SingularMatrixError):
                    inverse(a[b])


class TestNullingBatch:
    @pytest.mark.parametrize("core", ["zf", "mmse"])
    def test_matches_scalar(self, core):
        rng = make_stream(53, 0)
        snr = SnrSpec(14.0)
        h = gen_channel_batch(32, 4, 4, rng)
        p, metric, ok = nulling_batch(h, core, snr)
        assert ok.all()
        g = p @ h.conj().transpose(0, 2, 1)
        for b in range(32):
            g_s, m_s = nulling_matrix(h[b], core, snr)
            assert np.allclose(g[b], g_s, atol=1e-12, rtol=1e-10)
            assert np.allclose(metric[b], m_s)


class TestSliceIndices:
    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_matches_scalar(self, c):
        rng = np.random.default_rng(54)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        batched = slice_indices(z, c)
        for i in range(500):
            assert batched[i] == slice_indices(z[i], c)


class TestLinearBatch:
    """Linear detection is V-BLAST with zero iterations, in both loops."""

    @pytest.mark.parametrize("core", ["zf", "mmse"])
    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_matches_scalar(self, core, c):
        snr = SnrSpec(12.0)
        h, _, _, y = random_batch(60, 128, 4, 4, snr, c)
        assert assert_loops_agree(h, y, core, 0, snr, c).all()


class TestVblastBatch:
    @pytest.mark.parametrize("core", ["zf", "mmse"])
    @pytest.mark.parametrize("iters", [0, 1, 3, 7])
    def test_matches_scalar_8x8(self, core, iters):
        snr = SnrSpec(18.0)
        h, _, _, y = random_batch(61, 48, 8, 8, snr, QAM16)
        assert assert_loops_agree(h, y, core, iters, snr, QAM16).all()

    def test_matches_scalar_rectangular(self):
        snr = SnrSpec(10.0)
        h, _, _, y = random_batch(62, 32, 6, 4, snr, QPSK)
        assert assert_loops_agree(h, y, "mmse", 2, snr, QPSK).all()

    def test_singular_instance_flagged_not_fatal(self):
        snr = SnrSpec(15.0)
        h, _, _, y = random_batch(63, 16, 4, 4, snr, QPSK)
        h[7, :, 1] = h[7, :, 0]
        ok = assert_loops_agree(h, y, "zf", 2, snr, QPSK)
        assert ok.tolist() == [b != 7 for b in range(16)]

    @pytest.mark.parametrize("core", ["zf", "mmse"])
    def test_one_inversion_per_vector(self, core, monkeypatch):
        sizes = []

        def counting(a):
            sizes.append(a.shape[0])
            return inverse_batch(a)

        monkeypatch.setattr(batched, "inverse_batch", counting)
        snr = SnrSpec(18.0)
        h, _, _, y = random_batch(66, 48, 8, 8, snr, QAM16)
        vblast_indices_batch(h, y, core, 7, snr, QAM16)
        assert sizes == [48]

    # ZF at 15 dB and MMSE at 160 dB (noise variance 1e-16, below the pivot
    # threshold): a duplicated column makes the Gram matrix singular for both
    @pytest.mark.parametrize("core, snr_db", [("zf", 15.0), ("mmse", 160.0)])
    def test_singular_instance_flagged_at_full_depth(self, core, snr_db):
        snr = SnrSpec(snr_db)
        h, _, _, y = random_batch(67, 16, 4, 4, snr, QPSK)
        h[7, :, 3] = h[7, :, 2]  # duplicated column in the last stream
        ok = assert_loops_agree(h, y, core, 3, snr, QPSK)
        assert ok.tolist() == [b != 7 for b in range(16)]
        with pytest.raises(RankDeficiencyError):
            vblast_detect(h[7], y[7], DetectorSpec(core, 3), snr, QPSK)

    def test_refuses_negative_iterations(self):
        snr = SnrSpec(15.0)
        h, _, _, y = random_batch(68, 4, 4, 4, snr, QPSK)
        with pytest.raises(ValueError, match="iterations -1 is negative"):
            vblast_indices_batch(h, y, "mmse", -1, snr, QPSK)



class TestRecomputeBatch:
    @pytest.mark.parametrize("core", ["zf", "mmse"])
    @pytest.mark.parametrize("n_r, n_t, c", [(8, 8, QAM16), (4, 4, QPSK), (8, 6, QAM16)])
    def test_matches_scalar_at_every_depth(self, core, n_r, n_t, c):
        for seed, snr_db in enumerate((0.0, 10.0, 20.0, 34.0)):
            snr = SnrSpec(snr_db)
            h, _, _, y = random_batch(70 + seed, 12, n_r, n_t, snr, c)
            for iters in range(n_t):
                assert assert_loops_agree(h, y, core, iters, snr, c).all(), snr_db

    @pytest.mark.parametrize("iters", [0, 2])
    def test_zero_column_flagged_not_fatal(self, iters):
        snr = SnrSpec(15.0)
        h, _, _, y = random_batch(74, 16, 4, 4, snr, QPSK)
        h[5, :, 2] = 0.0
        ok = assert_loops_agree(h, y, "zf", iters, snr, QPSK)
        assert ok.tolist() == [b != 5 for b in range(16)]

    def test_inverts_the_deflated_channel_at_every_iteration(self, monkeypatch):
        shapes = []

        def counting(a):
            shapes.append(a.shape)
            return inverse_batch(a)

        monkeypatch.setattr(batched, "inverse_batch", counting)
        snr = SnrSpec(18.0)
        h, _, _, y = random_batch(75, 48, 8, 8, snr, QAM16)
        recompute_indices_batch(h, y, "mmse", 4, snr, QAM16)
        assert shapes == [(48, n, n) for n in (8, 7, 6, 5, 4)]

    def test_refuses_negative_iterations(self):
        snr = SnrSpec(15.0)
        h, _, _, y = random_batch(76, 4, 4, 4, snr, QPSK)
        with pytest.raises(ValueError, match="iterations -1 is negative"):
            recompute_indices_batch(h, y, "mmse", -1, snr, QPSK)

def survivors(p, alive):
    """The rows and columns of the full-size ``p`` that ``alive`` keeps, compacted."""
    m = int(alive[0].sum())
    return p[alive[:, :, None] & alive[:, None, :]].reshape(len(p), m, m)


class TestDowndateInverse:
    """``downdate_inverse_batch`` works on the full-size ``P`` in place: the
    surviving rows and columns hold the downdated inverse, and row and
    column ``j`` become exactly zero."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        core=st.sampled_from(["zf", "mmse"]),
        n_t=st.integers(2, 8),
        extra_rx=st.integers(0, 4),
    )
    def test_meets_inverse_contract_at_every_step(self, seed, core, n_t, extra_rx):
        """Each downdated P satisfies ``||A P - I||_F < 1e-9`` against the
        freshly deflated Gram A on draws whose full Gram matrix has a
        condition number below 1e6 (a deflated Gram matrix, a principal
        submatrix, is no worse conditioned). Gauss-Jordan inversion itself
        meets that bound there (worst residual 7e-10 over 8x8 draws at
        cond 1e6) but not at cond 1e7 and above, and the downdate follows
        the fresh inverse within a small factor."""
        batch = 32
        rows = np.arange(batch)
        snr = SnrSpec(20.0)
        h = gen_channel_batch(batch, n_t + extra_rx, n_t, make_stream(seed, 0))
        reg = 0.0 if core == "zf" else snr.noise_var
        p, metric, ok = nulling_batch(h, core, snr)
        assert ok.all()
        gram = h.conj().transpose(0, 2, 1) @ h + reg * np.eye(n_t)
        domain = np.linalg.cond(gram) < 1e6
        assert domain.any()
        alive = np.ones((batch, n_t), dtype=bool)
        for n in range(n_t - 1, 0, -1):
            j = np.argmin(np.where(alive, metric, np.inf), axis=1)
            assert downdate_inverse_batch(p, j).all()
            alive[rows, j] = False
            assert p.shape == (batch, n_t, n_t)
            assert not p[rows, j].any() and not p[rows, :, j].any()
            sub = survivors(p, alive)
            for b in range(batch):
                h_b = h[b][:, alive[b]]
                a = h_b.conj().T @ h_b + reg * np.eye(n)
                if domain[b]:
                    assert np.linalg.norm(a @ sub[b] - np.eye(n)) < 1e-9, (b, n)
            metric = np.diagonal(p, axis1=1, axis2=2).real

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equals_gather_reference_exactly(self, n):
        rng = np.random.default_rng(80 + n)
        rows = np.arange(256)
        h = gen_channel_batch(256, n + 1, n, make_stream(80 + n, 0))
        p, _, ok = nulling_batch(h, "mmse", SnrSpec(20.0))
        assert ok.all()
        p[:3, 0, 0] = [-1.0, 0.0, np.nan]  # bad pivots where j = 0
        pos = rng.integers(0, n, 256)  # the stream to remove, among the survivors
        pos[:3] = 0
        alive = np.ones((256, n), dtype=bool)
        for m in range(n, 1, -1):
            want, ok_want = downdate_reference(survivors(p, alive), pos)
            j = np.broadcast_to(np.arange(n), (256, n))[alive].reshape(256, m)[rows, pos]
            assert np.array_equal(downdate_inverse_batch(p, j), ok_want)
            alive[rows, j] = False
            assert np.array_equal(survivors(p, alive), want)
            assert not p[rows, j].any() and not p[rows, :, j].any()
            pos = rng.integers(0, m - 1, 256)

    def test_bad_pivot_flagged_and_kept_finite(self):
        p = np.broadcast_to(np.eye(3, dtype=np.complex128), (4, 3, 3)).copy()
        p[1, 2, 2] = -1.0
        p[2, 2, 2] = 0.0
        p[3, 2, 2] = np.nan
        ok = downdate_inverse_batch(p, np.full(4, 2))
        assert ok.tolist() == [True, False, False, False]
        assert np.isfinite(p).all()
        assert np.array_equal(p[0], np.diag([1.0, 1.0, 0.0]))
        assert not p[:, 2].any() and not p[:, :, 2].any()


class TestCountBitErrors:
    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_matches_hamming_on_labels(self, c):
        # point index = Gray label, so the Hamming distance of two labels is popcount(i ^ j)
        rng = np.random.default_rng(65)
        m = len(c.points)
        tx = rng.integers(0, m, (500, 8))
        rx = rng.integers(0, m, (500, 8))
        expected = sum(bin(i ^ j).count("1") for i, j in zip(tx.ravel().tolist(), rx.ravel().tolist()))
        assert count_bit_errors(tx, rx) == expected
