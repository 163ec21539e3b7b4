"""The batched detection kernels: one engine, one OSIC loop, two receivers.

The scalar names ``detectors.nulling_matrix`` and
``detectors.vblast_detect`` are batch-of-one views of these kernels, and
``linalg.inverse`` one of the partial-pivoting loop, so an instance's
result must not depend on the batch around it. The engine inverts with
diagonal pivots; swapping in the partial-pivoting loop changes no
decision. The sweep engine and the recomputing receiver run the same
soft-estimate loop and differ only in the source of the inverse's
columns: the sweep engine inverts the Gram matrix once, never writes to
that inverse, and per detected stream rebuilds one column of the
deflated inverse from stored factors; the recomputing receiver inverts
the deflated Gram matrix afresh after every detection. They must agree
on the whole batch (same validity, ordering and point indices). The
rebuilt column, the metric ``diag P`` and the soft estimates ``s = P r``
are each checked against freshly deflated Gram matrices, and the
recomputing receiver against the textbook loop of ``tests/oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osicsim.batched as batched
from osicsim.batched import (
    count_bit_errors,
    inverse_batch,
    nulling_batch,
    recompute_indices_batch,
    slice_indices,
    transmit_batch,
    vblast_indices_batch,
)
from osicsim.channel import SnrSpec, gen_channel_batch, gen_noise_batch, make_stream
from osicsim.detectors import nulling_matrix, vblast_detect
from osicsim.linalg import RankDeficiencyError, SingularMatrixError, _inverse_pivoting_batch, inverse
from osicsim.modem import QAM16, QPSK
from oracles import recompute_reference


def random_batch(seed, batch, n_r, n_t, snr, c):
    rng = make_stream(seed, 0)
    h = gen_channel_batch(batch, n_r, n_t, rng)
    idx = np.random.default_rng(seed).integers(0, len(c.points), (batch, n_t))
    x = c.points[idx]
    noise = gen_noise_batch(batch, n_r, snr.noise_var, rng)
    y = transmit_batch(h, x, noise)
    return h, idx, x, y


def assert_loops_agree(h, y, core, iters, snr, c):
    """The soft-estimate and the recomputing loop agree on the whole batch: the
    same validity mask, and the same orders and indices wherever it is set.
    Returns the mask."""
    idx, orders, ok = vblast_indices_batch(h, y, core, iters, snr, c)
    ref_idx, ref_orders, ref_ok = recompute_indices_batch(h, y, core, iters, snr, c)
    assert np.array_equal(ok, ref_ok), (core, iters)
    assert np.array_equal(orders[ok], ref_orders[ok]), (core, iters)
    assert np.array_equal(idx[ok], ref_idx[ok]), (core, iters)
    return ok


def gram_batch(h):
    return h.conj().transpose(0, 2, 1) @ h


class TestInverseBatch:
    def test_matches_scalar(self):
        rng = make_stream(50, 0)
        a = gram_batch(gen_channel_batch(64, 6, 6, rng))
        inv, ok = inverse_batch(a)
        assert ok.all()
        for b in range(64):
            assert np.allclose(inv[b], inverse(a[b]), atol=1e-12, rtol=1e-10)

    def test_flags_singular_instances(self):
        rng = make_stream(51, 0)
        h = gen_channel_batch(8, 4, 4, rng)
        h[5, :, 2] = h[5, :, 1]  # duplicated column
        a = gram_batch(h)
        a[3] = 0.0
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
        """An instance's inverse does not depend on its batch: a batch of one
        gives equal values, on instances with and without the row swaps of
        partial pivoting, next to dead ones. Gram matrices go through
        ``inverse_batch`` against its own batch of one, general ones through
        the partial-pivoting loop against ``inverse``, its batch of one."""
        a = gen_channel_batch(64, n, n, make_stream(70 + n, 0))
        if kind == "gram":
            a = gram_batch(a)
        a[3] = 0.0
        a[5, :, n - 1] = a[5, :, 0]  # duplicated column
        swapped = np.argmax(np.abs(a[:, :, 0]), axis=1) != 0
        assert swapped.any() and not swapped.all()
        inv, ok = (inverse_batch if kind == "gram" else _inverse_pivoting_batch)(a)
        assert ok.tolist() == [b not in (3, 5) for b in range(64)]
        for b in range(64):
            if kind == "gram":
                one, ok_one = inverse_batch(a[b : b + 1])
                assert ok_one[0] == ok[b], b
                if ok[b]:
                    assert np.array_equal(inv[b], one[0]), b
            elif ok[b]:
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
        hh = h.conj().transpose(0, 2, 1)
        for given, built in zip(nulling_batch(h, core, snr, hh), (p, metric, ok)):
            assert np.array_equal(given, built)  # a caller's H^H gives the same bits
        g = p @ hh
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

        def counting(a, reg):
            sizes.append(a.shape[0])
            return inverse_batch(a, reg)

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
            vblast_detect(h[7], y[7], core, 3, snr, QPSK)

    def test_refuses_negative_iterations(self):
        snr = SnrSpec(15.0)
        h, _, _, y = random_batch(68, 4, 4, 4, snr, QPSK)
        with pytest.raises(ValueError, match="iterations -1 is negative"):
            vblast_indices_batch(h, y, "mmse", -1, snr, QPSK)

    def test_never_writes_to_p(self, monkeypatch):
        """The loop only reads the inverse: handed a read-only ``P`` by
        ``nulling_batch``, it gives the same outputs."""
        snr = SnrSpec(30.0)
        h, _, _, y = random_batch(69, 1024, 8, 8, snr, QAM16)
        want = vblast_indices_batch(h, y, "mmse", 7, snr, QAM16)

        def read_only(*args):
            p, metric, ok = nulling_batch(*args)
            p.flags.writeable = False
            return p, metric, ok

        monkeypatch.setattr(batched, "nulling_batch", read_only)
        got = vblast_indices_batch(h, y, "mmse", 7, snr, QAM16)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)


class TestDiagonalPivots:
    """The engine inverts the Hermitian positive definite Gram matrix with
    diagonal pivots; partial pivoting in its place changes no decision."""

    @pytest.mark.parametrize("core", ["zf", "mmse"])
    @pytest.mark.parametrize("n_r, n_t, c", [(8, 8, QAM16), (4, 4, QPSK), (8, 6, QAM16)])
    def test_same_decisions_as_partial_pivoting(self, core, n_r, n_t, c, monkeypatch):
        cases = []
        for seed, snr_db in enumerate((4.0, 18.0, 34.0)):
            snr = SnrSpec(snr_db)
            h, _, _, y = random_batch(90 + seed, 512, n_r, n_t, snr, c)
            for loop in (vblast_indices_batch, recompute_indices_batch):
                for iters in range(n_t):
                    cases.append((loop, (h, y, core, iters, snr, c)))
        got = [loop(*args) for loop, args in cases]

        def pivoting(a, reg):  # on the regularized Gram matrix, formed in full
            return _inverse_pivoting_batch(a + np.eye(a.shape[-1]) * reg)

        monkeypatch.setattr(batched, "inverse_batch", pivoting)
        for (loop, args), g in zip(cases, got):
            want = loop(*args)
            assert want[2].all()
            for w, x in zip(want, g):
                assert np.array_equal(w, x), (loop.__name__, args[3], args[4].snr_db)



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

        def counting(a, reg):
            shapes.append(a.shape)
            return inverse_batch(a, reg)

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


class TestNonFiniteInstances:
    """An instance with a NaN channel entry or an infinite channel column is
    flagged, not fatal, in both receivers at every depth, and the other
    instances' outputs are those of the batch without it. Once the sweep
    engine's metric goes NaN, its first minimum may name a stream it
    already detected."""

    @pytest.mark.parametrize("loop", [vblast_indices_batch, recompute_indices_batch])
    @pytest.mark.parametrize("core", ["zf", "mmse"])
    def test_flagged_and_others_unchanged(self, loop, core):
        snr = SnrSpec(18.0)
        h, _, _, y = random_batch(77, 16, 8, 8, snr, QAM16)
        h[3, 2, 5] = np.nan
        h[9, :, 1] = np.inf
        good = [b for b in range(16) if b not in (3, 9)]
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for iters in range(8):
                got = loop(h, y, core, iters, snr, QAM16)
                assert got[2].tolist() == [b in good for b in range(16)], iters
                for w, g in zip(loop(h[good], y[good], core, iters, snr, QAM16), got, strict=True):
                    assert np.array_equal(w, g[good]), iters

class TestRecomputeReference:
    """``recompute_indices_batch`` builds the Gram matrix once, deletes the
    detected row and column from it, and forms only the nulling row it
    applies; ``oracles.recompute_reference`` rebuilds the Gram matrix and
    the whole ``G = P H^H`` at every iteration. The shapes of the BLAS
    products differ, so the soft values may differ in their last bits, but
    no decision does."""

    @pytest.mark.parametrize("batch", [1, 100, 1024])
    @pytest.mark.parametrize("n_r, n_t, c", [(8, 8, QAM16), (8, 6, QAM16), (4, 4, QPSK)])
    @pytest.mark.parametrize("core", ["zf", "mmse"])
    def test_same_decisions_and_soft_values_as_reference(self, core, n_r, n_t, c, batch, monkeypatch):
        """The same indices, orders and ``ok`` at every depth; and on draws
        whose regularized Gram matrix has a condition number below 1e6, every
        soft value the loop slices (each detection's, then the final
        block's) within 1e-9 of the reference's, relative. Both sides carry
        rounding of about eps cond = 2.2e-10 at that condition; measured
        worst 1.6e-12 on these draws and 1.8e-11 over wider random draws of
        these systems and batch sizes."""
        sliced = []
        slice_ = batched.slice_indices

        def recording(z, c):
            sliced.append(z.copy())
            return slice_(z, c)

        monkeypatch.setattr(batched, "slice_indices", recording)
        for draw in range(16 if batch == 1 else 1):
            for point, snr_db in enumerate((4.0, 19.0, 34.0)):
                snr = SnrSpec(snr_db)
                h, _, _, y = random_batch(300 + 3 * draw + point, batch, n_r, n_t, snr, c)
                domain = np.linalg.cond(regularized_gram(h, core, snr)) < 1e6
                for iters in range(n_t):
                    sliced.clear()
                    soft = []
                    want = recompute_reference(h, y, core, iters, snr, c, soft)
                    got = recompute_indices_batch(h, y, core, iters, snr, c)
                    assert want[2].all()
                    for w, g in zip(want, got, strict=True):
                        assert np.array_equal(w, g), (snr_db, iters)
                    assert len(sliced) == len(soft) == iters + 1
                    for z, z_ref in zip(sliced, soft):
                        assert np.all(np.abs(z - z_ref)[domain] <= 1e-9 * np.abs(z_ref)[domain]), (snr_db, iters)


def record_steps(monkeypatch):
    """Wraps ``batched._cancel_stream`` so that each detection of
    ``vblast_indices_batch`` appends copies of the column it rebuilt, and of
    ``s`` and ``d`` after its update, to the returned list."""
    steps = []
    cancel = batched._cancel_stream

    def recording(p0, factors, at, e, s, d):
        good = cancel(p0, factors, at, e, s, d)
        steps.append((factors[-1][0].copy(), s.copy(), d.copy()))
        return good

    monkeypatch.setattr(batched, "_cancel_stream", recording)
    return steps


def regularized_gram(h, core, snr):
    reg = 0.0 if core == "zf" else snr.noise_var
    return h.conj().transpose(0, 2, 1) @ h + reg * np.eye(h.shape[2])


class TestSoftEstimates:
    """Each detection of ``vblast_indices_batch`` rebuilds column ``j`` of
    the current inverse from ``P_0`` and the stored columns, and updates
    the soft estimates ``s`` and the metric ``d = diag P`` of the streams
    it leaves alive. Entries of detected streams are never read."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        core=st.sampled_from(["zf", "mmse"]),
        n_t=st.integers(2, 8),
        extra_rx=st.integers(0, 4),
    )
    def test_column_and_metric_meet_inverse_contract_at_every_step(self, seed, core, n_t, extra_rx):
        """At every step, on draws whose full Gram matrix has a condition
        number below 1e6 (a deflated Gram matrix, a principal submatrix, is
        no worse conditioned): the rebuilt column ``c`` of the streams ``A``
        alive before the step meets the inverse residual bound of
        ``linalg``, ``||G_A c_A - e_j|| < 1e-9``, against the freshly
        deflated regularized Gram ``G_A``; and ``d`` on the streams left
        alive is the diagonal of a fresh inverse of theirs within 1e-9,
        relative. Gauss-Jordan inversion itself meets the residual bound
        there (worst 7e-10 over 8x8 draws at cond 1e6) but not at cond 1e7
        and above."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            steps = record_steps(monkeypatch)
            batch = 32
            snr = SnrSpec(20.0)
            h, _, _, y = random_batch(seed, batch, n_t + extra_rx, n_t, snr, QAM16)
            _, orders, ok = vblast_indices_batch(h, y, core, n_t - 1, snr, QAM16)
        assert ok.all() and len(steps) == n_t - 1
        gram = regularized_gram(h, core, snr)
        domain = np.linalg.cond(gram) < 1e6
        assert domain.any()
        for k, (col, _, d) in enumerate(steps):
            for b in np.flatnonzero(domain):
                j = orders[b, k]
                alive = [i for i in range(n_t) if i not in orders[b, :k]]
                g_a = gram[b][np.ix_(alive, alive)]
                e_j = np.equal(alive, j).astype(float)
                assert np.linalg.norm(g_a @ col[alive, b] - e_j) < 1e-9, (b, k)
                left = [i for i in alive if i != j]
                fresh = np.diagonal(np.linalg.inv(gram[b][np.ix_(left, left)])).real
                assert np.all(np.abs(d[left, b] - fresh) < 1e-9 * fresh), (b, k)
                assert np.isinf(d[orders[b, : k + 1], b]).all()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_soft_estimates_match_fresh_cancellation(self, n, monkeypatch):
        """After each step, ``s`` on the streams ``A`` left alive is
        ``G_A^-1 (r_A - G_AD x_D)``, the linear estimate after cancelling
        the decisions ``x_D`` of the detected streams ``D``, solved afresh:
        within 1e-8 relative (2-norm) wherever the Gram matrix has a
        condition number below 1e6. At that condition both sides carry
        rounding of about eps cond = 2.2e-10; measured worst 1.3e-11 over
        random draws of 2 to 8 streams."""
        steps = record_steps(monkeypatch)
        snr = SnrSpec(20.0)
        h, _, _, y = random_batch(80 + n, 256, n + 1, n, snr, QAM16)
        out, orders, ok = vblast_indices_batch(h, y, "mmse", n - 1, snr, QAM16)
        assert ok.all()
        gram = regularized_gram(h, "mmse", snr)
        domain = np.linalg.cond(gram) < 1e6
        assert domain.sum() > 250
        r = np.einsum("bri,br->bi", h.conj(), y)
        for k, (_, s, _) in enumerate(steps):
            for b in np.flatnonzero(domain):
                done = list(orders[b, : k + 1])
                left = [i for i in range(n) if i not in done]
                rhs = r[b, left] - gram[b][np.ix_(left, done)] @ QAM16.points[out[b, done]]
                want = np.linalg.solve(gram[b][np.ix_(left, left)], rhs)
                assert np.linalg.norm(s[left, b] - want) < 1e-8 * np.linalg.norm(want), (b, k)

    def test_bad_pivot_flagged_and_kept_finite(self):
        """Pivots of -1, 0 and NaN are flagged; a flagged step stores the
        reciprocal 0, so the surviving entries of ``s`` and ``d`` stay finite,
        also through a later step that reads the stored column."""
        p = np.broadcast_to(np.eye(3, dtype=np.complex128), (4, 3, 3)).copy()
        p[1, 2, 2] = -1.0
        p[2, 2, 2] = 0.0
        p[3, 2, 2] = np.nan
        p0 = p.transpose(1, 2, 0).reshape(3, 12)  # flat batch-last, as the loop reads P
        s = np.ones((3, 4), dtype=np.complex128)
        d = np.diagonal(p, axis1=1, axis2=2).real.T.copy()
        factors = []
        good = batched._cancel_stream(p0, factors, 2 * 4 + np.arange(4), np.full(4, 0.5), s, d)
        assert good.tolist() == [True, False, False, False]
        assert np.isfinite(s[:2]).all() and np.isfinite(d[:2]).all()
        assert np.isinf(d[2]).all()
        assert np.array_equal(s[:, 0], [1.0, 1.0, 1.5]) and np.array_equal(d[:, 0], [1.0, 1.0, np.inf])
        assert factors[0][1].tolist() == [1.0, 0.0, 0.0, 0.0]
        good = batched._cancel_stream(p0, factors, 1 * 4 + np.arange(4), np.full(4, 0.5), s, d)
        assert good.all()
        assert np.isfinite(s[0]).all() and np.isfinite(d[0]).all()


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
