"""Tests for iteration policies, calibration tables and SNR estimation."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osicsim.channel import SnrSpec, complex_normal, gen_channel_batch, make_stream
from osicsim.detectors import DetectorSpec, vblast_detect
from osicsim.harness import ConfigError, SweepConfig, _iterations, run_ber_sweep
from osicsim.modem import QAM16
from osicsim.policy import (
    SNR_ESTIMATE_CAP_DB,
    CalibrationError,
    CalibrationTable,
    IterationPolicy,
    decide_iterations,
    estimate_snr,
    feedback_detect,
    feedback_iters,
    formula_iters,
    n_imax,
)


def synthetic_table(snrs=(16.0, 22.0, 25.0, 34.0), nmax=4, meta=None):
    """Monotone synthetic BER grid: decays with snr and with n."""
    rows = []
    for s in snrs:
        for n in range(0, nmax + 1):
            ber = 10 ** (-(s - 10.0) / 8.0 - 0.45 * n)
            rows.append((s, n, min(ber, 0.5), 100_000))
    arr = list(zip(*rows))
    meta = meta or {"mod": "qam16", "nt": 8, "nr": 8, "core": "mmse", "seed": 1}
    return CalibrationTable(
        np.array(arr[0]), np.array(arr[1]), np.array(arr[2]), np.array(arr[3]), dict(meta)
    )


class TestNimax:
    def test_examples(self):
        assert n_imax(8) == 4
        assert n_imax(1) == 0
        assert n_imax(16) == 8
        assert n_imax(5) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            n_imax(0)


class TestFormulaIters:
    def test_pinned_operating_pairs(self):
        # the calibrated pairs this fit reproduces exactly (n_t = 8)
        assert formula_iters(16.0, 8) == 4
        assert formula_iters(21.0, 8) == 4
        assert formula_iters(22.0, 8) == 3
        assert formula_iters(23.3, 8) == 2
        assert formula_iters(25.0, 8) == 1
        assert formula_iters(34.0, 8) == 1

    def test_round_half_away_from_zero(self):
        # (53 - 2 * 22.75) / 3 = 2.5 rounds to 3, not banker's 2
        assert formula_iters(22.75, 8) == 3

    def test_transition_points(self):
        # step boundaries of the fitted staircase
        assert formula_iters(24.2, 8) == 2
        assert formula_iters(24.3, 8) == 1
        assert formula_iters(22.7, 8) == 3

    def test_range_exhaustive(self):
        for n_t in (2, 4, 8, 16):
            for snr10 in range(0, 601):
                n = formula_iters(snr10 / 10.0, n_t)
                assert 1 <= n <= n_t // 2, (snr10 / 10.0, n_t, n)

    def test_non_increasing_in_snr(self):
        for n_t in (2, 4, 8, 16):
            values = [formula_iters(s / 10.0, n_t) for s in range(0, 601)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_needs_two_antennas(self):
        with pytest.raises(ValueError):
            formula_iters(20.0, 1)


class TestCalibrationTable:
    def test_csv_round_trip(self, tmp_path):
        t = synthetic_table()
        path = tmp_path / "calib.csv"
        t.save_csv(path)
        back = CalibrationTable.load_csv(path)
        assert np.allclose(back.snr_db, t.snr_db)
        assert np.array_equal(back.n_i, t.n_i)
        assert np.allclose(back.ber, t.ber)
        assert np.array_equal(back.symbols, t.symbols)
        assert back.meta["mod"] == "qam16"
        assert back.meta["core"] == "mmse"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(snrs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8, unique=True))
    @example(snrs=[16.0, 16.0000001])  # six significant digits would write two 16 rows
    @example(snrs=[23.3333333])
    def test_csv_round_trips_any_snr_grid(self, tmp_path_factory, snrs):
        t = CalibrationTable(np.array(snrs), np.arange(len(snrs)) % 3, np.full(len(snrs), 0.25), np.arange(len(snrs)))
        path = tmp_path_factory.mktemp("calib") / "calib.csv"
        t.save_csv(path)
        back = CalibrationTable.load_csv(path)
        assert back.snr_db.tobytes() == t.snr_db.tobytes()
        assert back.to_csv() == t.to_csv()

    def test_csv_bytes_unchanged_where_g_is_exact(self):
        # ``:g`` wrote each of these exactly before; the file keeps its bytes
        path = Path(__file__).resolve().parent.parent / "bench" / "calib_8x8_qam16.csv"
        assert CalibrationTable.load_csv(path).to_csv() == path.read_text()
        t = CalibrationTable(np.array([16.0, 23.3, -4.5, 1e-5]), np.ones(4), np.full(4, 0.5), np.ones(4))
        assert [line.split(",")[0] for line in t.to_csv().splitlines()[2:]] == ["16", "23.3", "-4.5", "1e-05"]

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationTable(np.array([]), np.array([]), np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "bad_row, match",
        [
            ((22.0, 1, float("nan"), 1000), "finite"),
            ((22.0, 1, float("inf"), 1000), "finite"),
            ((float("nan"), 1, 1e-3, 1000), "finite"),
            ((20.0, 1, 1e-3, 1000), "duplicate"),
            ((22.0, 1, 1e-3, -1), "non-negative"),
        ],
        ids=["nan-ber", "inf-ber", "nan-snr", "duplicate-row", "negative-symbols"],
    )
    def test_bad_rows_rejected(self, tmp_path, bad_row, match):
        rows = [(20.0, 1, 1e-2, 1000), (30.0, 1, 1e-4, 1000), bad_row]
        cols = [np.array(c) for c in zip(*rows)]
        with pytest.raises(CalibrationError, match=match):
            CalibrationTable(*cols, {"mod": "qam16", "nt": 8, "nr": 8, "core": "mmse"})
        path = tmp_path / "calib.csv"
        path.write_text(
            "# mod=qam16 nt=8 nr=8 core=mmse\nsnr_db,n_i,ber,symbols\n"
            + "".join(f"{s},{n},{b},{m}\n" for s, n, b, m in rows)
        )
        with pytest.raises(CalibrationError, match=match):
            CalibrationTable.load_csv(path)

    @pytest.mark.parametrize(
        "row",
        ["22,1,1e-3", "abc,1,1e-3,1000", "22,1.5,1e-3,1000"],
        ids=["three-columns", "non-numeric-snr", "fractional-n_i"],
    )
    def test_malformed_csv_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "calib.csv"
        path.write_text(f"# mod=qam16 nt=8 nr=8 core=mmse\nsnr_db,n_i,ber,symbols\n20,1,1e-2,1000\n{row}\n")
        with pytest.raises(CalibrationError) as info:
            CalibrationTable.load_csv(path)
        assert str(info.value) == (
            f"{path}:4: expected snr_db,n_i,ber,symbols (numbers; n_i and symbols integers), got {row!r}"
        )

    def test_committed_bench_table_loads(self):
        path = Path(__file__).resolve().parent.parent / "bench" / "calib_8x8_qam16.csv"
        t = CalibrationTable.load_csv(path)
        assert len(t.snr_db) == 20
        t.validate_for("qam16", 8, "mmse")

    def test_validate_for_mismatch(self):
        t = synthetic_table()
        t.validate_for("qam16", 8, "mmse")
        with pytest.raises(CalibrationError, match="mod"):
            t.validate_for("qpsk", 8, "mmse")
        with pytest.raises(CalibrationError, match="core"):
            t.validate_for("qam16", 8, "zf")

    def test_validate_for_coverage(self):
        t = synthetic_table(nmax=2)  # covers n_i 0..2 only
        with pytest.raises(CalibrationError, match="covers"):
            t.validate_for("qam16", 8, "mmse")

    def test_interpolation_log_domain(self):
        t = synthetic_table()
        # midway between rows the log10 values interpolate linearly
        b16 = t.interp_ber(16.0, 1)
        b22 = t.interp_ber(22.0, 1)
        mid = t.interp_ber(19.0, 1)
        assert np.log10(mid) == pytest.approx(
            0.5 * (np.log10(b16) + np.log10(b22)), rel=1e-9
        )

    def test_zero_ber_cells_interpolable(self):
        t = CalibrationTable(
            np.array([20.0, 30.0, 20.0, 30.0]),
            np.array([1, 1, 2, 2]),
            np.array([1e-2, 0.0, 1e-3, 0.0]),
            np.array([1000] * 4),
            {"mod": "qam16", "nt": 8, "nr": 8, "core": "mmse"},
        )
        assert np.isfinite(t.interp_ber(25.0, 1))
        assert t.meets_target(30.0, 1, 1e-2)


class TestFeedbackIters:
    def test_direct_lookup(self):
        t = CalibrationTable(
            np.array([25.0, 25.0, 25.0, 25.0, 26.0, 26.0, 26.0, 26.0]),
            np.array([1, 2, 3, 4, 1, 2, 3, 4]),
            np.array([8e-3, 4e-3, 2e-3, 1e-3, 6e-3, 3e-3, 1e-3, 5e-4]),
            np.array([100_000] * 8),
            {"mod": "qam16", "nt": 8, "nr": 8, "core": "mmse"},
        )
        assert feedback_iters(25.0, t, 1e-2, 8) == 1

    def test_below_range_clamps_to_nimax(self):
        t = synthetic_table()
        assert feedback_iters(0.0, t, 1e-2, 8) == 4

    def test_above_range_returns_one(self):
        t = synthetic_table()
        assert feedback_iters(50.0, t, 1e-2, 8) == 1

    def test_none_qualifies_returns_nimax(self):
        t = synthetic_table()
        # impossible target within range
        assert feedback_iters(20.0, t, 1e-9, 8) == 4

    def test_non_increasing_in_snr(self):
        t = synthetic_table(snrs=tuple(np.arange(14.0, 36.1, 2.0)))
        values = [feedback_iters(s, t, 1e-2, 8) for s in np.arange(14.0, 36.01, 0.25)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_non_finite_estimate_rejected(self):
        with pytest.raises(ValueError):
            feedback_iters(float("nan"), synthetic_table(), 1e-2, 8)


class TestEstimateSnr:
    def test_noiseless_pilots_capped(self):
        h = np.eye(4, dtype=complex)
        x = np.ones((10, 4), dtype=complex)
        y = x.copy()  # y = h x exactly
        est = estimate_snr(y, h, x)
        assert est == SNR_ESTIMATE_CAP_DB

    def test_synthetic_noise_concentration(self):
        # noise_var = 0.01 over 1000 pilot uses: estimate within +-0.5 dB of 20
        rng = make_stream(77, 0)
        n_uses, n_r, n_t = 1000, 4, 4
        h = gen_channel_batch(n_uses, n_r, n_t, rng)
        x = complex_normal(rng, (n_uses, n_t), 1.0)
        noise = complex_normal(rng, (n_uses, n_r), 0.01)
        y = np.einsum("pij,pj->pi", h, x) + noise
        est = estimate_snr(y, h, x)
        assert est == pytest.approx(20.0, abs=0.5)

    def test_shared_channel_across_uses(self):
        rng = make_stream(78, 0)
        h = gen_channel_batch(1, 3, 2, rng)[0]
        x = complex_normal(rng, (200, 2), 1.0)
        noise = complex_normal(rng, (200, 3), 0.1)
        y = x @ h.T + noise
        est = estimate_snr(y, h, x)
        assert est == pytest.approx(10.0, abs=1.0)

    def test_empty_pilots_rejected(self):
        with pytest.raises(ValueError, match="degenerate pilot"):
            estimate_snr(np.zeros((0, 4)), np.eye(4), np.zeros((0, 4)))


class TestFeedbackDetect:
    def test_matches_planned_count_and_single_pass(self):
        t = synthetic_table(snrs=tuple(np.arange(14.0, 36.1, 2.0)))
        rng = make_stream(79, 0)
        snr = SnrSpec(15.0)
        for est_db in (14.0, 18.0, 24.0, 30.0, 35.9):
            planned = feedback_iters(est_db, t, 1e-2, 8)
            h = gen_channel_batch(1, 8, 8, rng)[0]
            x = QAM16.points[np.random.default_rng(3).integers(0, 16, 8)]
            y = h @ x + complex_normal(rng, (8,), snr.noise_var)
            trace, used = feedback_detect(h, y, "mmse", snr, QAM16, t, 1e-2, est_db)
            assert used == planned
            single = vblast_detect(h, y, DetectorSpec("mmse", used), snr, QAM16)
            assert np.array_equal(trace.indices, single.indices)
            assert trace.order == single.order


class TestIterationPolicy:
    """``harness._iterations`` resolves every detection depth; the legacy
    ``IterationPolicy``/``decide_iterations`` pair remains for
    ``bench/make_reference.py``."""

    def test_decide_fixed(self):
        # fixed depths: the full loop, n_imax, and integer depths
        cfg = SweepConfig()
        assert _iterations("ordinary", cfg, 20.0, None) == 7
        assert _iterations("fixed_nimax", cfg, 20.0, None) == 4
        assert _iterations(3, cfg, 20.0, None) == 3
        with pytest.raises(ConfigError, match="outside"):
            run_ber_sweep(cfg, (9,))

    def test_decide_formula(self):
        assert _iterations("formula", SweepConfig(), 25.0, None) == 1
        assert decide_iterations(IterationPolicy("formula", 1e-2), 25.0, 8) == 1

    def test_decide_feedback_needs_table(self):
        with pytest.raises(ConfigError, match="requires a calibration table"):
            run_ber_sweep(SweepConfig(snr_db_list=(25.0,)), ("feedback",))
        assert _iterations("feedback", SweepConfig(), 0.0, synthetic_table()) == 4
        assert decide_iterations(IterationPolicy("feedback", 1e-2), 0.0, 8, synthetic_table()) == 4

    def test_validation(self):
        # a fixed count is an integer depth, not a name, and the one target lives in SweepConfig
        with pytest.raises(ConfigError, match="unknown depth"):
            run_ber_sweep(SweepConfig(), ("fixed",))
        with pytest.raises(ConfigError, match="target_ber"):
            run_ber_sweep(SweepConfig(target_ber=0.7), ("formula",))

    def test_bench_reference_keeps_its_depths(self):
        # bench/make_reference.py resolves the depths of reference.json
        # through the legacy pair; they must still agree with the file
        bench = Path(__file__).resolve().parent.parent / "bench"
        sys.path.insert(0, str(bench))
        try:
            make_reference = importlib.import_module("make_reference")
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(bench))
        reference = json.loads((bench / "reference.json").read_text())["workloads"]
        for name in workloads.WORKLOADS:
            depths = [(c["variant"], c["snr_db"], c["n_i"]) for c in make_reference.cells_for(workloads, name)]
            assert depths == [(c["variant"], c["snr_db"], c["n_i"]) for c in reference[name]["cells"]], name

    def test_policy_agreement_band_with_synthetic_table(self):
        # with a table calibrated at the same target condition the two
        # policies agree within one iteration across the operating band
        t = synthetic_table(snrs=tuple(np.arange(16.0, 34.1, 1.0)))
        for s in np.arange(16.0, 34.01, 0.5):
            nf = formula_iters(float(s), 8)
            nb = feedback_iters(float(s), t, 1e-2, 8)
            assert abs(nf - nb) <= 2  # synthetic decay, loose coupling check
