"""Tests for the Monte Carlo harness: sweeps, calibration, compare, bench."""

import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import osicsim.harness as harness
import osicsim.policy as policy
from osicsim.batched import count_bit_errors, recompute_indices_batch, vblast_indices_batch
from osicsim.channel import link_snr, make_stream
from osicsim.harness import (
    BenchReport,
    ConfigError,
    MIN_SYMBOLS_FLOOR,
    SweepConfig,
    SYMBOL_BUDGET_FACTOR,
    bench_complexity,
    calibrate,
    compare_policies,
    run_ber_sweep,
    run_linear_sweep,
)
from osicsim.linalg import RankDeficiencyError
from osicsim.modem import get_constellation
from osicsim.policy import CalibrationTable, feedback_iters, formula_iters
from test_cli import _cpuinfo_model


def small_cfg(**kw):
    base = dict(
        n_t=4,
        n_r=4,
        subcarriers=8,
        modulation="qpsk",
        core="mmse",
        snr_db_list=(12.0,),
        min_symbols=10_000,
        min_errors=100,
        seed=1,
        workers=1,
    )
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_defaults_valid(self):
        SweepConfig().validate()

    # vector counts of each draw at the budget on an 8x8 system (1,024 bytes of channel per vector)
    @pytest.mark.parametrize("key, at_bound, extra", [
        ("subcarriers", harness.DRAW_BYTES_MAX // 1024, {}),
        ("pilot_uses", harness.DRAW_BYTES_MAX // 1024, {"snr_est": "pilot"}),
        ("bench_detections", harness.DRAW_BYTES_MAX // 1024 - harness.BENCH_WARMUP_CALLS, {}),
    ])
    def test_largest_draw_is_bounded(self, key, at_bound, extra):
        SweepConfig(**{key: at_bound}, **extra).validate()
        size = (at_bound + 1 + (harness.BENCH_WARMUP_CALLS if key == "bench_detections" else 0)) * 1024
        with pytest.raises(ConfigError) as info:
            SweepConfig(**{key: at_bound + 1}, **extra).validate()
        assert str(info.value).startswith(f"{key} = {at_bound + 1} makes ")
        assert f"{size} bytes, more than DRAW_BYTES_MAX = {harness.DRAW_BYTES_MAX}" in str(info.value)

    def test_pilot_block_is_sized_only_where_it_is_drawn(self):
        SweepConfig(pilot_uses=harness.DRAW_BYTES_MAX, snr_est="genie").validate()

    def test_antennas_are_bounded(self):
        top = harness.MAX_ANTENNAS
        SweepConfig(n_t=top, n_r=top).validate()  # with every default draw inside the budget
        for n_t, n_r in ((top + 1, top + 1), (1, top + 1)):
            with pytest.raises(ConfigError, match=f"n_t and n_r must be <= {top}, got n_t={n_t}, n_r={n_r}"):
                SweepConfig(n_t=n_t, n_r=n_r).validate()

    def test_symbol_budget_fits_int64(self):
        top = np.iinfo(np.int64).max // SYMBOL_BUDGET_FACTOR
        small_cfg(min_symbols=top).validate()
        for too_many in (top + 1, 10**20):
            with pytest.raises(ConfigError, match=f"min_symbols must lie in \\[10000, {top}\\], got {too_many}"):
                small_cfg(min_symbols=too_many).validate()

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError, match="n_r >= n_t"):
            small_cfg(n_t=6, n_r=4).validate()
        with pytest.raises(ConfigError, match="min_symbols"):
            small_cfg(min_symbols=500).validate()
        with pytest.raises(ConfigError, match="min_errors"):
            small_cfg(min_errors=10).validate()
        with pytest.raises(ConfigError, match="snr_db_list"):
            small_cfg(snr_db_list=()).validate()
        with pytest.raises(ConfigError, match="unknown core"):
            small_cfg(core="dfe").validate()
        with pytest.raises(ConfigError, match="modulation"):
            small_cfg(modulation="qam64").validate()
        with pytest.raises(ConfigError, match="modulation"):
            small_cfg(modulation="QPSK").validate()  # a table would record mod=QPSK, which no qpsk run accepts
        with pytest.raises(ConfigError, match="duplicate"):
            small_cfg(snr_db_list=(8.0, 12.0, 8.0)).validate()
        with pytest.raises(ConfigError, match="duplicate"):
            calibrate(small_cfg(snr_db_list=(8.0, 8.0)))

    def test_seed_is_an_unsigned_64_bit_integer(self):
        # a seed outside the Philox key range is refused here, not inside the first cell
        for seed in (0, 2**64 - 1):
            small_cfg(seed=seed).validate()
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}$"):
                small_cfg(seed=seed).validate()

    def test_link_snr_convention(self):
        # nominal axis derates by 10 log10(n_t) at the link
        assert link_snr(16.0, 8).snr_db == pytest.approx(16.0 - 10 * np.log10(8))
        assert link_snr(12.0, 1).snr_db == pytest.approx(12.0)


class TestRunBerSweep:
    def test_depths_checked(self):
        # one rule for every depth: a count in [0, n_t - 1], a known name,
        # and feedback only with a table
        with pytest.raises(ConfigError, match="outside"):
            run_ber_sweep(small_cfg(), (4,))
        with pytest.raises(ConfigError, match="unknown depth 'fixed'"):
            run_ber_sweep(small_cfg(), ("fixed",))
        with pytest.raises(ConfigError, match="requires a calibration table"):
            run_ber_sweep(small_cfg(), ("feedback",))
        with pytest.raises(ConfigError, match="requires a calibration table"):
            compare_policies(small_cfg(), None)

    def test_bool_depth_refused(self):
        # bool is an Integral, so True would pass the range check as 1
        with pytest.raises(ConfigError, match="depth True is a bool"):
            run_ber_sweep(small_cfg(), (True,))

    def test_noiseless_limit_gives_zero_ber(self):
        pts = run_ber_sweep(small_cfg(snr_db_list=(120.0,)), (0, 3))
        assert len(pts) == 2
        cap_bits = SYMBOL_BUDGET_FACTOR * 10_000 * 2
        for p in pts:
            assert p.bit_errors == 0
            assert p.ber == 0.0
            # zero errors never satisfies min_errors: budget cap applies,
            # stopping at the first batch boundary at or past the cap
            assert cap_bits <= p.total_bits <= cap_bits + 1024 * 4 * 2

    def test_budget_cap_marks_point(self):
        # 60 dB 2x2 QPSK makes almost no errors: the cell stops at the cap
        cfg = small_cfg(n_t=2, n_r=2, subcarriers=64, snr_db_list=(60.0,), seed=1)
        (p,) = run_ber_sweep(cfg, (0,))
        assert (p.bit_errors, p.capped) == (3, True)
        assert p.total_bits >= SYMBOL_BUDGET_FACTOR * cfg.min_symbols * 2
        (met,) = run_ber_sweep(small_cfg(snr_db_list=(0.0,)), (0,))
        assert met.bit_errors >= 100 and not met.capped

    def test_very_low_snr_is_coin_flipping(self):
        pts = run_ber_sweep(small_cfg(snr_db_list=(-20.0,)), (0,))
        assert 0.45 <= pts[0].ber <= 0.55

    def test_deterministic_across_worker_counts(self):
        cfg1 = small_cfg(snr_db_list=(8.0, 12.0), workers=1)
        cfg8 = small_cfg(snr_db_list=(8.0, 12.0), workers=8)
        pts1 = run_ber_sweep(cfg1, (0, 2))
        pts8 = run_ber_sweep(cfg8, (0, 2))
        assert [(p.snr_db, p.n_i, p.bit_errors, p.total_bits) for p in pts1] == [
            (p.snr_db, p.n_i, p.bit_errors, p.total_bits) for p in pts8
        ]

    def test_repeat_run_bit_identical_counts(self):
        cfg = small_cfg(snr_db_list=(10.0,))
        a = run_ber_sweep(cfg, (1,))
        b = run_ber_sweep(cfg, (1,))
        assert a[0].bit_errors == b[0].bit_errors
        assert a[0].total_bits == b[0].total_bits

    def test_ber_monotone_in_snr(self):
        cfg = small_cfg(snr_db_list=(2.0, 4.0, 6.0, 8.0), min_errors=400)
        pts = run_ber_sweep(cfg, (1,))
        bers = [p.ber for p in pts]
        for lo, hi in zip(bers[1:], bers[:-1]):
            assert lo <= hi * 1.15

    def test_zf_curve_above_mmse_curve(self):
        snrs = (6.0, 10.0)
        zf = run_linear_sweep(small_cfg(snr_db_list=snrs, core="zf"), "zf")
        mmse = run_linear_sweep(small_cfg(snr_db_list=snrs, core="mmse"), "mmse")
        for pz, pm in zip(zf, mmse):
            assert pm.ber <= pz.ber * 1.15

    def test_policy_driven_sweep_resolves_iterations(self):
        cfg = small_cfg(
            n_t=8,
            n_r=8,
            modulation="qam16",
            snr_db_list=(25.0,),
        )
        pts = run_ber_sweep(cfg, ("formula",))
        assert len(pts) == 1
        assert pts[0].n_i == formula_iters(25.0, 8) == 1
        assert pts[0].policy == "formula"

    def test_subcarrier_count_statistically_invariant(self):
        # K only regroups draws; matched budgets must give matching BER
        base = dict(snr_db_list=(6.0,), min_errors=2000, min_symbols=40_000)
        p1 = run_ber_sweep(small_cfg(subcarriers=1, **base), (1,))[0]
        p64 = run_ber_sweep(small_cfg(subcarriers=64, **base), (1,))[0]
        assert p1.ber == pytest.approx(p64.ber, rel=0.15)

    def test_pilot_estimation_mode_runs(self):
        cfg = small_cfg(
            n_t=8,
            n_r=8,
            modulation="qam16",
            snr_db_list=(25.0,),
            snr_est="pilot",
            pilot_uses=512,
        )
        pts = run_ber_sweep(cfg, ("formula",))
        # pilot-estimated SNR lands near 25 dB, so the decision matches genie
        assert pts[0].n_i == 1


def golden_table() -> CalibrationTable:
    """A two-SNR 8x8 16-QAM MMSE table for the golden policy counts."""
    return CalibrationTable(
        np.array([16.0, 16.0, 16.0, 16.0, 34.0, 34.0, 34.0, 34.0]),
        np.array([1, 2, 3, 4, 1, 2, 3, 4]),
        np.array([5e-2, 3e-2, 2e-2, 1.5e-2, 8e-4, 2e-4, 1e-4, 8e-5]),
        np.array([100_000] * 8),
        {"mod": "qam16", "nt": 8, "nr": 8, "core": "mmse"},
    )


class TestGoldenCounts:
    """Exact counts for fixed (config, seed). A kernel change that moves any
    of them also has to change the manifest's RNG/engine string, and these
    values with it."""

    def test_ber_sweep_8x8_qam16_mmse(self):
        cfg = SweepConfig(snr_db_list=(16.0, 22.0), min_symbols=MIN_SYMBOLS_FLOOR, seed=7)
        assert [(p.snr_db, p.n_i, p.bit_errors, p.total_bits) for p in run_ber_sweep(cfg, (7,))] == [
            (16.0, 7, 5061, 65536),
            (22.0, 7, 511, 65536),
        ]

    def test_ber_sweep_8x8_qam16_mmse_intermediate_depths(self):
        # 6 and 4 surviving streams reach the final linear block
        cfg = SweepConfig(snr_db_list=(16.0, 22.0), min_symbols=MIN_SYMBOLS_FLOOR, seed=7)
        assert [(p.snr_db, p.n_i, p.bit_errors, p.total_bits) for p in run_ber_sweep(cfg, (2, 4))] == [
            (16.0, 2, 5594, 65536),
            (16.0, 4, 5160, 65536),
            (22.0, 2, 1131, 65536),
            (22.0, 4, 476, 65536),
        ]

    def test_ber_sweep_4x4_qpsk_mmse_intermediate_depths(self):
        cfg = SweepConfig(
            n_t=4, n_r=4, modulation="qpsk", core="mmse", snr_db_list=(8.0, 14.0),
            min_symbols=MIN_SYMBOLS_FLOOR, seed=7,
        )
        assert [(p.snr_db, p.n_i, p.bit_errors, p.total_bits) for p in run_ber_sweep(cfg, (1, 2))] == [
            (8.0, 1, 1588, 24576),
            (8.0, 2, 1422, 24576),
            (14.0, 1, 320, 24576),
            (14.0, 2, 167, 24576),
        ]

    def test_compare_policies_cell(self):
        # three depths (4, 1, 7) on the shared draws of one cell
        table = golden_table()
        cfg = SweepConfig(snr_db_list=(20.0,), min_symbols=MIN_SYMBOLS_FLOOR, seed=7, target_ber=3e-2)
        assert [(p.policy, p.n_i, p.bit_errors, p.total_bits) for p in compare_policies(cfg, table)] == [
            ("formula", 4, 1403, 65536),
            ("feedback", 1, 2785, 65536),
            ("ordinary", 7, 1181, 65536),
        ]

    def test_formula_sweep_pilot_estimate(self):
        # the pilot estimate at 22.75 dB lands above the formula's 2/3 boundary
        cfg = SweepConfig(snr_db_list=(16.0, 22.75), snr_est="pilot", min_symbols=MIN_SYMBOLS_FLOOR, seed=7)
        assert [(p.policy, p.n_i, p.bit_errors, p.total_bits) for p in run_ber_sweep(cfg, ("formula",))] == [
            ("formula", 4, 5284, 65536),
            ("formula", 2, 874, 65536),
        ]

    def test_feedback_sweep(self):
        cfg = SweepConfig(snr_db_list=(16.0, 20.0, 30.0), min_symbols=MIN_SYMBOLS_FLOOR, seed=7)
        points = run_ber_sweep(cfg, ("feedback",), table=golden_table())
        assert [(p.policy, p.n_i, p.bit_errors, p.total_bits) for p in points] == [
            ("feedback", 4, 5284, 65536),
            ("feedback", 2, 1994, 65536),
            ("feedback", 1, 166, 65536),
        ]

    def test_bench_counts(self):
        cfg = SweepConfig(snr_db_list=(16.0, 30.0), bench_detections=100, seed=6, target_ber=3e-2)
        assert [(r.variant, r.n_i, r.bit_errors) for r in bench_complexity(cfg, golden_table()).rows] == [
            ("ordinary", 7, 271),
            ("ordinary", 7, 0),
            ("fixed_nimax", 4, 265),
            ("fixed_nimax", 4, 0),
            ("formula", 4, 220),
            ("formula", 1, 6),
            ("feedback", 2, 329),
            ("feedback", 1, 2),
        ]

    def test_linear_sweep_4x4_qpsk_zf(self):
        cfg = SweepConfig(
            n_t=4, n_r=4, modulation="qpsk", core="zf", snr_db_list=(0.0, 10.0),
            min_symbols=MIN_SYMBOLS_FLOOR, seed=7,
        )
        assert [(p.snr_db, p.bit_errors, p.total_bits) for p in run_linear_sweep(cfg, "zf")] == [
            (0.0, 8218, 24576),
            (10.0, 3194, 24576),
        ]


def singular_channels(monkeypatch, per_call):
    """Make ``harness.gen_channel_batch`` duplicate a column in ``per_call(call)`` leading instances of a call.

    Calls count from 1 in ``calls["n"]``; the test may reset it.
    """
    real = harness.gen_channel_batch
    calls = {"n": 0}

    def inject(count, n_r, n_t, rng):
        h = real(count, n_r, n_t, rng)
        calls["n"] += 1
        for i in range(per_call(calls["n"])):
            h[i, :, 1] = h[i, :, 0]
        return h

    monkeypatch.setattr(harness, "gen_channel_batch", inject)
    return calls


def sequential_counts(cfg, n_i):
    """``(bit_errors, total_bits)`` of a one-variant, one-point sweep by the plain loop.

    Draw a batch, detect it, drop the instances the detector flags, count
    the rest, and stop once both targets are met (no test here reaches the
    symbol budget).
    """
    c = get_constellation(cfg.modulation)
    link = link_snr(cfg.snr_db_list[0], cfg.n_t)
    rng = make_stream(cfg.seed, 1)
    batch = harness._batch_vectors(cfg.subcarriers)
    vectors = errors = 0
    while vectors * cfg.n_t < cfg.min_symbols or errors < cfg.min_errors:
        h, tx_idx, _, y = harness._draw(cfg, c, batch, link.noise_var, rng)
        out, _, ok = vblast_indices_batch(h, y, cfg.core, n_i, link, c)
        vectors += int(ok.sum())
        errors += count_bit_errors(tx_idx[ok], out[ok])
    assert vectors * cfg.n_t < SYMBOL_BUDGET_FACTOR * cfg.min_symbols
    return errors, vectors * cfg.n_t * c.bits_per_symbol


@pytest.fixture
def fine_switching():
    """A short switch interval, which interleaves the helper's draws and the cell's thread as finely as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestRankExclusion:
    """A rank-deficient instance is left out of every count of its cell, which draws on to its targets."""

    def test_excluded_instances_are_not_counted(self, monkeypatch, fine_switching):
        real = harness.gen_channel_batch
        calls = {"n": 0, "deficient": 0}

        def inject(count, n_r, n_t, rng):
            h = real(count, n_r, n_t, rng)
            calls["n"] += 1
            if calls["n"] == calls["deficient"]:  # two rank-deficient instances in one batch
                h[0, :, 1] = h[0, :, 0]
                h[3, :, 2] = 0.5 * h[3, :, 0]
            return h

        monkeypatch.setattr(harness, "gen_channel_batch", inject)
        # four batches of 1024 vectors make 16,384 symbols; two excluded
        # instances leave 16,376, so the cell draws a fifth batch. In the
        # fourth batch they fall where the cell expected to stop and drew
        # nothing ahead, so the fifth is drawn after it.
        cfg = small_cfg(core="zf", snr_db_list=(10.0,), subcarriers=64, min_symbols=16_384, seed=7)
        for deficient, counts in ((1, (2856, 40944)), (3, (2858, 40944)), (4, (2858, 40944))):
            calls.update(n=0, deficient=deficient)
            expected = sequential_counts(cfg, 2)
            calls.update(n=0)
            (p,) = run_ber_sweep(cfg, (2,))
            assert (p.bit_errors, p.total_bits) == expected == counts

    def test_refused_above_one_in_a_thousand(self, monkeypatch, fine_switching):
        # two batches of 2,000 vectors: four excluded instances are 0.1% of the draws, five are more
        cfg = small_cfg(core="zf", snr_db_list=(10.0,), subcarriers=1000)
        excluded = {"n": 4}
        calls = singular_channels(monkeypatch, lambda n: excluded["n"] if n == 1 else 0)
        (p,) = run_ber_sweep(cfg, (2,))
        assert p.total_bits == (4000 - 4) * 4 * 2
        excluded["n"] = 5
        calls["n"] = 0
        before = threading.enumerate()
        with pytest.raises(RankDeficiencyError, match="^5 rank-deficient instances out of 4000 draws exceeds 0.1%$"):
            run_ber_sweep(cfg, (2,))
        assert threading.enumerate() == before


class TestHelperThread:
    """Each cell draws its next batch on one helper thread, which no run leaves behind."""

    CFG = dict(snr_db_list=(8.0, 12.0))

    def test_sweep_leaves_no_thread(self):
        before = threading.enumerate()
        run_ber_sweep(small_cfg(**self.CFG), (1,))
        assert threading.enumerate() == before

    def test_rank_deficiency_error_leaves_no_thread(self, monkeypatch):
        # two singular channels in every batch of 1024 vectors: 0.195% of the draws
        singular_channels(monkeypatch, lambda n: 2)
        before = threading.enumerate()
        with pytest.raises(RankDeficiencyError, match="exceeds 0.1%"):
            run_ber_sweep(small_cfg(**self.CFG, core="zf"), (1,))
        assert threading.enumerate() == before

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        drawn_on = []

        def broken(count, n_r, noise_var, rng):
            drawn_on.append(threading.current_thread())
            raise FloatingPointError(f"noise of {count} vectors failed")

        monkeypatch.setattr(harness, "gen_noise_batch", broken)
        before = threading.enumerate()
        with pytest.raises(FloatingPointError, match="^noise of 1024 vectors failed$"):
            run_ber_sweep(small_cfg(**self.CFG), (1,))
        assert threading.enumerate() == before
        assert drawn_on and threading.main_thread() not in drawn_on

    def test_pool_after_helper_threads_keeps_the_counts(self):
        # runs after the tests above in one process: the fork pool starts
        # with no helper thread alive
        counts = {}
        for workers in (1, 2):
            pts = run_ber_sweep(small_cfg(**self.CFG, workers=workers), (1,))
            counts[workers] = [(p.snr_db, p.bit_errors, p.total_bits) for p in pts]
        assert counts[1] == counts[2]


class TestCalibrate:
    def test_grid_and_derived_structure(self):
        cfg = small_cfg(
            n_t=4, n_r=4, modulation="qpsk", core="mmse",
            snr_db_list=(6.0, 14.0),
        )
        table, derived, _ = calibrate(cfg)
        # grid covers n_i = 0..n_imax for each snr
        assert sorted(set(table.n_i.tolist())) == [0, 1, 2]
        assert sorted(set(table.snr_db.tolist())) == [6.0, 14.0]
        assert table.meta["mod"] == "qpsk"
        assert len(derived) == 2
        # derived counts live in [1, n_imax]
        for _, n in derived:
            assert 1 <= n <= 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_derived_counts_between_one_and_n_imax(self, seed):
        # 8x8 16-QAM, n_imax = 4: no count meets the target at 16 dB, and the
        # grid crosses it at n_i = 3 and n_i = 2 at the two higher points
        cfg = SweepConfig(
            n_t=8, n_r=8, modulation="qam16", subcarriers=8, snr_db_list=(16.0, 22.75, 25.0), seed=seed
        )
        _, derived, points = calibrate(cfg)
        assert derived == [(16.0, 4), (22.75, 3), (25.0, 2)]
        ber = {(p.snr_db, p.n_i): p.ber for p in points}
        for snr_db, n in derived:
            assert all(ber[snr_db, m] > cfg.target_ber for m in range(1, n))
            assert n == 4 or ber[snr_db, n] <= cfg.target_ber

    def test_accept_anything_target_gives_one(self):
        cfg = small_cfg(n_t=4, n_r=4, snr_db_list=(8.0,), target_ber=0.49)
        _, derived, _ = calibrate(cfg)
        assert derived == [(8.0, 1)]

    def test_target_outside_domain_refused(self):
        cfg = small_cfg(n_t=4, n_r=4, snr_db_list=(8.0,), target_ber=1.0)
        with pytest.raises(ConfigError, match="target_ber must lie in"):
            calibrate(cfg)

    def test_grid_monotone_in_iterations(self):
        cfg = small_cfg(
            n_t=4, n_r=4, snr_db_list=(10.0,), min_errors=400,
        )
        table, _, _ = calibrate(cfg)
        bers = {n: table.ber[(table.snr_db == 10.0) & (table.n_i == n)][0] for n in (0, 1, 2)}
        assert bers[1] <= bers[0] * 1.15
        assert bers[2] <= bers[1] * 1.15


@pytest.fixture(scope="module")
def table():
    cfg = SweepConfig(
        n_t=8, n_r=8, modulation="qam16", core="mmse",
        snr_db_list=(16.0, 25.0, 34.0),
        min_symbols=25_000, min_errors=100, seed=3,
    )
    table, _, _ = calibrate(cfg)
    return table


class TestComparePolicies:

    def test_paired_points_share_bits(self, table):
        cfg = SweepConfig(
            n_t=8, n_r=8, modulation="qam16", core="mmse",
            snr_db_list=(20.0, 30.0), seed=4,
        )
        pts = compare_policies(cfg, table)
        assert len(pts) == 6
        by_snr = {}
        for p in pts:
            by_snr.setdefault(p.snr_db, {})[p.policy] = p
        for snr, d in by_snr.items():
            assert set(d) == {"formula", "feedback", "ordinary"}
            # shared draws: identical denominators
            assert d["formula"].total_bits == d["feedback"].total_bits == d["ordinary"].total_bits
        # ordinary runs the full loop
        assert all(d["ordinary"].n_i == 7 for d in by_snr.values())

    def test_policies_not_worse_than_linear_and_ordinary_best_high_snr(self, table):
        cfg = SweepConfig(
            n_t=8, n_r=8, modulation="qam16", core="mmse",
            snr_db_list=(30.0,), seed=5, min_errors=200,
        )
        pts = {p.policy: p for p in compare_policies(cfg, table)}
        linear = run_ber_sweep(
            SweepConfig(
                n_t=8, n_r=8, modulation="qam16", core="mmse",
                snr_db_list=(30.0,), seed=5, min_errors=200,
            ),
            (0,),
        )[0]
        for tag in ("formula", "feedback"):
            assert pts[tag].ber <= linear.ber * 1.15
        assert pts["ordinary"].ber <= pts["formula"].ber * 1.15
        assert pts["ordinary"].ber <= pts["feedback"].ber * 1.15

    def test_mismatched_table_rejected(self, table):
        cfg = SweepConfig(
            n_t=8, n_r=8, modulation="qam16", core="zf",
            snr_db_list=(20.0,),
        )
        from osicsim.policy import CalibrationError

        with pytest.raises(CalibrationError):
            compare_policies(cfg, table)


class TestBench:
    def test_report_structure_and_orderings(self):
        # tiny bench: structure, determinism of counts, ordinary = 100%
        from osicsim.policy import CalibrationTable

        table = CalibrationTable(
            np.array([16.0, 16.0, 16.0, 16.0, 34.0, 34.0, 34.0, 34.0]),
            np.array([1, 2, 3, 4, 1, 2, 3, 4]),
            np.array([5e-2, 3e-2, 2e-2, 1.5e-2, 8e-4, 2e-4, 1e-4, 8e-5]),
            np.array([100_000] * 8),
            {"mod": "qam16", "nt": 8, "nr": 8, "core": "mmse"},
        )
        cfg = SweepConfig(
            n_t=8, n_r=8, modulation="qam16", core="mmse",
            snr_db_list=(16.0, 30.0),
            bench_detections=400, seed=6,
        )
        report = bench_complexity(cfg, table)
        assert isinstance(report, BenchReport)
        names = [s[0] for s in report.summary]
        assert names == ["ordinary", "fixed_nimax", "formula", "feedback"]
        ratios = {name: r for name, _, r in report.summary}
        assert ratios["ordinary"] == pytest.approx(100.0)
        # loose smoke bounds only; the full-sample ordering gate lives in the
        # acceptance suite, where 1e4 detections make timings stable
        assert ratios["fixed_nimax"] < 110.0
        assert ratios["formula"] < ratios["fixed_nimax"] + 30.0
        # counts deterministic: repeat and compare error columns
        report2 = bench_complexity(cfg, table)
        assert [(r.variant, r.snr_db, r.bit_errors) for r in report.rows] == [
            (r.variant, r.snr_db, r.bit_errors) for r in report2.rows
        ]

    def test_feedback_restarts_a_pass_per_candidate_depth(self, monkeypatch):
        # every cell detects its warm-up batch once and its timed batch
        # BENCH_REPEATS times; feedback runs passes 1 .. n_i each time and
        # reports the n_i that feedback_iters plans. The feedback variant's
        # passes run inside policy.feedback_detect, the others in the harness.
        depths = []
        real = harness.recompute_indices_batch

        def recording(h, y, core, iterations, snr, c):
            depths.append(iterations)
            return real(h, y, core, iterations, snr, c)

        monkeypatch.setattr(harness, "recompute_indices_batch", recording)
        monkeypatch.setattr(policy, "recompute_indices_batch", recording)
        cfg = SweepConfig(snr_db_list=(16.0, 30.0), bench_detections=100, seed=6, target_ber=3e-2)
        table = golden_table()
        rows = bench_complexity(cfg, table).rows
        calls = 1 + harness.BENCH_REPEATS
        expected = []
        for snr_db in cfg.snr_db_list:
            planned = feedback_iters(snr_db, table, cfg.target_ber, cfg.n_t)
            assert [r.n_i for r in rows if r.variant == "feedback" and r.snr_db == snr_db] == [planned]
            expected += [7] * calls + [4] * calls + [formula_iters(snr_db, cfg.n_t)] * calls
            expected += list(range(1, planned + 1)) * calls
        assert depths == expected
        assert {r.n_i for r in rows if r.variant == "feedback"} == {1, 2}

    @pytest.mark.parametrize("vector", [0, harness.BENCH_WARMUP_CALLS + 50])
    def test_rank_deficient_channel_raises(self, monkeypatch, vector):
        # a duplicated column, in a warm-up or in a timed vector of the first cell
        calls = {"n": 0}
        real = harness.gen_channel_batch

        def inject(count, n_r, n_t, rng):
            h = real(count, n_r, n_t, rng)
            calls["n"] += 1
            if calls["n"] == 1:
                h[vector, :, 1] = h[vector, :, 0]
            return h

        monkeypatch.setattr(harness, "gen_channel_batch", inject)
        cfg = small_cfg(core="zf", snr_db_list=(10.0,), bench_detections=100)
        table = CalibrationTable(
            np.array([10.0, 10.0]), np.array([1, 2]), np.array([1e-2, 1e-3]), np.array([10_000] * 2),
            {"mod": "qpsk", "nt": 4, "nr": 4, "core": "zf"},
        )
        with pytest.raises(RankDeficiencyError, match="ordinary at 10 dB"):
            bench_complexity(cfg, table)
        assert calls["n"] == 1

    def test_zero_iteration_variant_is_cheapest(self):
        # strictly less work than every other truncation; assert by measurement
        # on whole batches, as the bench times them, in interleaved rounds so
        # that drifting host load affects every variant alike, and on
        # per-variant medians so that one disturbed round cannot decide the order
        import time as _time

        from osicsim.batched import recompute_indices_batch
        from osicsim.channel import SnrSpec, gen_channel_batch, make_stream
        from osicsim.modem import QAM16

        snr = SnrSpec(15.0)
        rng = make_stream(12, 0)
        h = gen_channel_batch(1100, 8, 8, rng)
        y = np.einsum("bij,j->bi", h, QAM16.points[:8])
        rounds = {n_i: [] for n_i in (0, 4, 7)}
        for n_i in rounds:  # warmup
            recompute_indices_batch(h[:100], y[:100], "mmse", n_i, snr, QAM16)
        for r in range(5):
            block = slice(100 + 200 * r, 300 + 200 * r)
            for n_i in rounds:
                t0 = _time.perf_counter_ns()
                recompute_indices_batch(h[block], y[block], "mmse", n_i, snr, QAM16)
                rounds[n_i].append((_time.perf_counter_ns() - t0) / 200)
        means = {n_i: float(np.median(t)) for n_i, t in rounds.items()}
        assert means[0] < means[4] < means[7], rounds


class TestWhatARunLoads:
    """A single-worker run loads and starts only what it uses."""

    def test_single_worker_run_loads_no_pool_or_masked_arrays(self):
        code = textwrap.dedent(
            """
            import resource, sys, tempfile
            import numpy as np
            from osicsim.cli import main
            from osicsim.harness import SweepConfig, bench_complexity, run_ber_sweep
            from osicsim.policy import CalibrationTable

            cfg = SweepConfig(n_t=2, n_r=2, modulation="qpsk", subcarriers=8, snr_db_list=(10.0,),
                              bench_detections=100)
            run_ber_sweep(cfg, (1,))
            table = CalibrationTable(np.array([10.0]), np.array([1]), np.array([1e-2]), np.array([10_000]),
                                     {"mod": "qpsk", "nt": 2, "nr": 2, "core": "mmse"})
            bench_complexity(cfg, table)
            with tempfile.TemporaryDirectory() as out:  # the bench command writes the machine note three times
                with open(f"{out}/table.csv", "w") as fh:
                    fh.write(table.to_csv())
                main(["bench", "--nt", "2", "--nr", "2", "--mod", "qpsk", "--snr", "10", "--bench-detections", "100",
                      "--calib", f"{out}/table.csv", "--out", out], standalone_mode=False)
            print(sorted(m for m in ("numpy.ma", "concurrent.futures.process") if m in sys.modules))
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        *_, loaded, child_rss = proc.stdout.splitlines()  # after the bench command's own lines
        assert loaded == "[]"
        if _cpuinfo_model():
            # the bench command's machine notes read the model and forked no `uname -p`
            assert child_rss == "0"


    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        # a fork pool starts all of its workers at the first submit; this stub
        # records the size asked for and runs the cells here, starting nothing
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # more CPUs than cells: the cells bound the pool
        counts = {}
        for workers in (1, 2, 8, 5000):
            pts = run_ber_sweep(small_cfg(snr_db_list=(8.0, 12.0), workers=workers), (1,))
            counts[workers] = [(p.snr_db, p.bit_errors, p.total_bits) for p in pts]
        assert sizes == [2, 2, 2]  # two cells; one worker runs them inline
        assert counts[1] == counts[2] == counts[8] == counts[5000]
        run_ber_sweep(small_cfg(workers=2), (1,))
        assert sizes[-1] == 1  # a pool still starts for one cell when workers > 1

        # nor more than there are CPUs, and one where the count is unknown; the counts stay the same
        snrs = (4.0, 6.0, 8.0, 12.0)
        sweep_counts = lambda workers: [
            (p.snr_db, p.bit_errors, p.total_bits)
            for p in run_ber_sweep(small_cfg(snr_db_list=snrs, workers=workers), (1,))
        ]
        expected = sweep_counts(1)
        for cpus, size in ((3, 3), (1, 1), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert sweep_counts(100_000) == expected
            assert sizes[-1] == size

    def test_package_root_loads_nothing(self):
        # the root holds only the version: importing it loads neither numpy nor
        # the harness, whose import sets up the allocator
        code = "import sys, osicsim; print(sorted(m for m in ('numpy', 'osicsim.harness') if m in sys.modules))"
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestWorkingSet:
    """Peak memory of one batch's draw and detections, as a multiple of the
    batch's channel bytes, the unit of ``DRAW_BYTES_MAX``."""

    @pytest.mark.parametrize("n_t, mod, core, iterations, count", [
        (8, "qam16", "mmse", 7, 1024),
        (4, "qpsk", "zf", 0, 1024),
        (32, "qam16", "mmse", 31, 64),
    ])
    def test_peaks_stay_within_pinned_multiples(self, n_t, mod, core, iterations, count):
        # measured: draw 2.0-2.2x, sweep engine 3.4-4.6x, recomputing receiver 4.9-7.2x
        cfg = SweepConfig(n_t=n_t, n_r=n_t, modulation=mod, core=core)
        c = get_constellation(mod)
        link = link_snr(20.0, n_t)
        channel_bytes = count * n_t * n_t * 16

        def peak(fn, *args):
            tracemalloc.start()
            try:
                return fn(*args), tracemalloc.get_traced_memory()[1] / channel_bytes
            finally:
                tracemalloc.stop()

        (h, _, _, y), draw = peak(harness._draw, cfg, c, count, link.noise_var, make_stream(1, 1))
        _, sweep = peak(vblast_indices_batch, h, y, core, iterations, link, c)
        _, recompute = peak(recompute_indices_batch, h, y, core, iterations, link, c)
        assert draw < 3 and sweep < 5 and recompute < 8, (draw, sweep, recompute)


class TestFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator settings are glibc's")
    def test_batches_reuse_freed_pages(self):
        # with glibc's default thresholds each such batch faulted in about
        # 1,150 fresh pages (its megabyte-sized arrays were unmapped at free)
        code = textwrap.dedent(
            """
            import resource
            from osicsim.batched import vblast_indices_batch
            from osicsim.channel import link_snr, make_stream
            from osicsim.harness import SweepConfig, _draw
            from osicsim.modem import QAM16

            cfg = SweepConfig()
            link = link_snr(30.0, cfg.n_t)
            rng = make_stream(1, 1)

            def batch():
                h, _, _, y = _draw(cfg, QAM16, 1024, link.noise_var, rng)
                vblast_indices_batch(h, y, "mmse", 7, link, QAM16)

            batch()
            batch()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(4):
                batch()
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 200

    def test_other_libc_is_left_alone(self, monkeypatch):
        import ctypes

        class OtherLibc:  # no gnu_get_libc_version; reaching for mallopt raises AttributeError
            pass

        monkeypatch.setattr(ctypes, "CDLL", lambda name: OtherLibc())
        harness._keep_freed_memory()
