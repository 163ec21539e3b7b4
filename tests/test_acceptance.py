"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with the measured evidence. Sample sizes are fixed-seed, so
every number below is reproducible bit for bit.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from osicsim.batched import (
    count_bit_errors,
    ml_indices_batch,
    transmit_batch,
    vblast_indices_batch,
)
from osicsim.channel import SnrSpec, gen_channel_batch, gen_noise_batch, link_snr, make_stream, random_bits
from osicsim.cli import main as cli_main
from osicsim.detectors import ml_candidates, nulling_matrix
from osicsim.harness import SweepConfig, bench_complexity, calibrate, compare_policies
from osicsim.linalg import inverse
from osicsim.modem import QAM16, QPSK, bits_to_indices, get_constellation
from osicsim.policy import formula_iters

SEED = 1


def report(criterion: int, text: str) -> None:
    print(f"\nPASS criterion {criterion}: {text}")


def shared_draw_bers(n_t, n_r, c, nominal_db, variants, seed, target_errors, max_vectors, batch=4096):
    """Paired BER measurement: every variant detects the same draws.

    ``variants`` maps tag -> (core, iterations). Returns (bers, bits).
    """
    link = link_snr(nominal_db, n_t)
    rng = make_stream(seed, 0)
    errors = {tag: 0 for tag in variants}
    bits = 0
    vectors = 0
    bps = c.bits_per_symbol
    while vectors < max_vectors and min(errors.values()) < target_errors:
        h = gen_channel_batch(batch, n_r, n_t, rng)
        tx_idx = bits_to_indices(random_bits(rng, batch * n_t * bps), c).reshape(batch, n_t)
        noise = gen_noise_batch(batch, n_r, link.noise_var, rng)
        y = transmit_batch(h, c.points[tx_idx], noise)
        for tag, (core, n_i) in variants.items():
            out, _, ok = vblast_indices_batch(h, y, core, n_i, link, c)
            assert ok.all()
            errors[tag] += count_bit_errors(tx_idx, out)
        bits += batch * n_t * bps
        vectors += batch
    return {tag: errors[tag] / bits for tag in variants}, bits


@pytest.fixture(scope="module")
def calibration():
    """Shared 8x8 16-QAM MMSE calibration run (criteria 7, 8 and 9)."""
    cfg = SweepConfig(
        n_t=8,
        n_r=8,
        subcarriers=64,
        modulation="qam16",
        core="mmse",
        snr_db_list=(16.0, 22.0, 25.0, 34.0),
        min_symbols=25_000,  # >= 1e5 bits per grid cell at 4 bits/symbol
        min_errors=100,
        seed=SEED,
        workers=1,
    )
    table, derived, _ = calibrate(cfg)
    return table, derived


def zf_nulling(a):
    """The ZF nulling matrix ``(A^H A)^-1 A^H``, the pseudo-inverse of ``a``."""
    return nulling_matrix(a, "zf", SnrSpec(0.0))[0]


def test_criterion_01_numerics_suite():
    """Penrose residuals of the ZF nulling matrix < 1e-8 on 1e3 random matrices;
    inverse residual < 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_penrose = 0.0
    worst_inverse = 0.0
    checked_inv = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, rows + 1))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        p = zf_nulling(a)
        na, np_ = np.linalg.norm(a), np.linalg.norm(p)
        r1 = np.linalg.norm(a @ p @ a - a) / na
        r2 = np.linalg.norm(p @ a @ p - p) / np_
        pa, ap = p @ a, a @ p
        r3 = np.linalg.norm(pa.conj().T - pa) / max(1.0, np.linalg.norm(pa))
        r4 = np.linalg.norm(ap.conj().T - ap) / max(1.0, np.linalg.norm(ap))
        worst_penrose = max(worst_penrose, r1, r2, r3, r4)
        if rows == cols and np.linalg.cond(a) < 1e8:
            res = np.linalg.norm(a @ inverse(a) - np.eye(rows))
            worst_inverse = max(worst_inverse, res)
            checked_inv += 1
    elapsed = time.time() - t0
    assert worst_penrose < 1e-8
    assert worst_inverse < 1e-9
    assert checked_inv > 50
    assert elapsed < 10.0
    report(1, f"worst Penrose residual {worst_penrose:.2e}, worst inverse residual "
              f"{worst_inverse:.2e} over 1000 matrices ({elapsed:.1f} s)")


def test_criterion_02_noiseless_perfection():
    """BER = 0 exactly for every detector over 1e4 noiseless 4x4 QPSK vectors."""
    t0 = time.time()
    n_vec, n_t = 10_000, 4
    rng = make_stream(SEED, 0)
    h = gen_channel_batch(n_vec, n_t, n_t, rng)
    tx_idx = bits_to_indices(random_bits(rng, n_vec * n_t * 2), QPSK).reshape(n_vec, n_t)
    y = transmit_batch(h, QPSK.points[tx_idx], np.zeros((n_vec, n_t), dtype=np.complex128))
    snr = SnrSpec(120.0)  # noise_var 1e-12 for the MMSE regularizer
    variants = [("zf", n) for n in range(n_t)] + [("mmse", n) for n in range(n_t)]
    for core, n_i in variants:
        out, _, ok = vblast_indices_batch(h, y, core, n_i, snr, QPSK)
        assert ok.all()
        errs = count_bit_errors(tx_idx, out)
        assert errs == 0, (core, n_i, errs)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"0 bit errors across {len(variants)} detector variants x "
              f"{n_vec} noiseless vectors ({elapsed:.1f} s)")


def test_criterion_03_high_snr_limit():
    """MMSE nulling at noise_var = 1e-12 matches ZF nulling (the pseudo-inverse)
    within 1e-6 elementwise."""
    snr = SnrSpec(120.0)
    assert snr.noise_var == pytest.approx(1e-12)
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for n in (4, 8):
        for _ in range(100):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g, _ = nulling_matrix(h, "mmse", snr)
            worst = max(worst, float(np.max(np.abs(g - zf_nulling(h)))))
    assert worst < 1e-6
    report(3, f"max |G_mmse - pinv(H)| = {worst:.2e} over 100 4x4 and 100 8x8 channels")


def test_criterion_04_oracle_dominance():
    """ML <= V-BLAST(1) <= ZF linear on 1e5 shared 2x2 QPSK vectors at 12 dB."""
    t0 = time.time()
    n_vec, n_t = 100_000, 2
    link = link_snr(12.0, n_t)
    rng = make_stream(SEED, 0)
    cand = ml_candidates(n_t, QPSK)
    errors = {"ml": 0, "vblast": 0, "zf": 0}
    bits = 0
    batch = 10_000
    for _ in range(n_vec // batch):
        h = gen_channel_batch(batch, n_t, n_t, rng)
        tx_idx = bits_to_indices(random_bits(rng, batch * n_t * 2), QPSK).reshape(batch, n_t)
        noise = gen_noise_batch(batch, n_t, link.noise_var, rng)
        y = transmit_batch(h, QPSK.points[tx_idx], noise)
        errors["ml"] += count_bit_errors(tx_idx, ml_indices_batch(h, y, cand, QPSK))
        out_vb, _, _ = vblast_indices_batch(h, y, "zf", 1, link, QPSK)
        errors["vblast"] += count_bit_errors(tx_idx, out_vb)
        out_zf, _, _ = vblast_indices_batch(h, y, "zf", 0, link, QPSK)
        errors["zf"] += count_bit_errors(tx_idx, out_zf)
        bits += batch * n_t * 2
    ber = {k: v / bits for k, v in errors.items()}
    elapsed = time.time() - t0
    assert ber["ml"] <= ber["vblast"] * 1.10
    assert ber["vblast"] <= ber["zf"] * 1.10
    assert elapsed < 120.0
    report(4, f"BER ml={ber['ml']:.3e} <= vblast={ber['vblast']:.3e} <= "
              f"zf={ber['zf']:.3e} on {n_vec} shared vectors ({elapsed:.1f} s)")


def test_criterion_05_diminishing_returns():
    """Iterations beyond n_t/2 buy < 1.5x; the first n_t/2 buy > 2x vs linear."""
    t0 = time.time()

    # 4x4 QPSK MMSE at 15 dB: the full-vs-half gap sits near the 1.5 bound
    # (true ratio ~1.49), so this point runs a large fixed-seed sample
    ber4, bits4 = shared_draw_bers(
        4, 4, QPSK, 15.0,
        {"n0": ("mmse", 0), "nhalf": ("mmse", 2), "nfull": ("mmse", 3)},
        seed=SEED, target_errors=120_000, max_vectors=20_000_000,
    )
    assert bits4 >= 2 * 10**5
    assert ber4["nhalf"] <= ber4["n0"] / 2, ber4
    assert ber4["nfull"] >= ber4["nhalf"] / 1.5, ber4

    # 8x8 16-QAM MMSE at 24 dB
    ber8, bits8 = shared_draw_bers(
        8, 8, QAM16, 24.0,
        {"n0": ("mmse", 0), "nhalf": ("mmse", 4), "nfull": ("mmse", 7)},
        seed=SEED, target_errors=10_000, max_vectors=2_000_000,
    )
    assert bits8 >= 2 * 10**5
    assert ber8["nhalf"] <= ber8["n0"] / 2, ber8
    assert ber8["nfull"] >= ber8["nhalf"] / 1.5, ber8

    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(5, "4x4@15dB BER(0/2/3) = {:.3e}/{:.3e}/{:.3e} ({:.0f} kbit); "
              "8x8@24dB BER(0/4/7) = {:.3e}/{:.3e}/{:.3e} ({:.0f} kbit) ({:.0f} s)".format(
                  ber4["n0"], ber4["nhalf"], ber4["nfull"], bits4 / 1e3,
                  ber8["n0"], ber8["nhalf"], ber8["nfull"], bits8 / 1e3, elapsed))


def test_criterion_06_formula_pins():
    """The formula returns 4, 3, 2, 1, 1 at 16, 22, 23.3, 25, 34 dB (n_t = 8)."""
    pins = {16.0: 4, 22.0: 3, 23.3: 2, 25.0: 1, 34.0: 1}
    got = {snr: formula_iters(snr, 8) for snr in pins}
    assert got == pins
    # 21 dB is exempt from the pinned list; the fit used here hits it too
    assert formula_iters(21.0, 8) == 4
    report(6, f"formula_iters pins {got} (21 dB -> 4)")


def test_criterion_07_calibration_consistency(calibration):
    """Derived iteration counts within +-1 of the 4/3/1/1 targets."""
    t0 = time.time()
    table, derived = calibration
    targets = {16.0: 4, 22.0: 3, 25.0: 1, 34.0: 1}
    got = dict(derived)
    for snr, want in targets.items():
        assert abs(got[snr] - want) <= 1, (snr, got[snr], want)
    # every grid cell carries >= 1e5 bits = 25e3 symbols
    assert int(table.symbols.min()) * 4 >= 10**5
    report(7, f"derived n_i {got} vs targets {targets} (+-1), "
              f"min cell size {int(table.symbols.min())} symbols ({time.time() - t0:.1f} s)")


def test_criterion_08_policy_agreement(calibration):
    """Formula and feedback BER within 2x; ordinary best at/after 26 dB."""
    t0 = time.time()
    table, _ = calibration
    cfg = SweepConfig(
        n_t=8, n_r=8, subcarriers=64, modulation="qam16", core="mmse",
        snr_db_list=tuple(float(s) for s in range(16, 35, 2)),
        min_symbols=10_000, min_errors=100, seed=SEED, workers=1,
    )
    points = compare_policies(cfg, table)
    by_snr = {}
    for p in points:
        by_snr.setdefault(p.snr_db, {})[p.policy] = p

    violations = []
    for snr, d in sorted(by_snr.items()):
        f, b = d["formula"].ber, d["feedback"].ber
        hi, lo = max(f, b), min(f, b)
        if lo > 0 and hi / lo > 2.0:
            violations.append(f"{snr} dB: formula {f:.3e} vs feedback {b:.3e} (x{hi / lo:.2f})")
        if lo == 0 and hi > 0:
            violations.append(f"{snr} dB: one policy errored, the other did not")
        if snr >= 26.0:
            o = d["ordinary"].ber
            for tag in ("formula", "feedback"):
                if o > d[tag].ber * 1.15:
                    violations.append(f"{snr} dB: ordinary {o:.3e} > 1.15x {tag} {d[tag].ber:.3e}")
    elapsed = time.time() - t0
    assert not violations, violations
    assert elapsed < 900.0
    pairs = {s: (d["formula"].n_i, d["feedback"].n_i) for s, d in sorted(by_snr.items())}
    # the two planners agree within one iteration across the band
    assert all(abs(a - b) <= 1 for a, b in pairs.values()), pairs
    report(8, f"(formula, feedback) iteration pairs {pairs}, all BER ratios <= 2 ({elapsed:.0f} s)")


def test_criterion_09_complexity_ordering(calibration):
    """Mean detect time: formula < fixed(n_imax) < ordinary; feedback > ordinary at <= 20 dB."""
    t0 = time.time()
    table, _ = calibration
    cfg = SweepConfig(
        n_t=8, n_r=8, subcarriers=64, modulation="qam16", core="mmse",
        snr_db_list=(16.0, 19.0, 22.0, 25.0, 28.0, 31.0, 34.0),
        seed=SEED, workers=1, bench_detections=1500,
    )
    report_ = bench_complexity(cfg, table)
    per_variant = {name: mean for name, mean, _ in report_.summary}
    # >= 1e4 timed detections per variant across the band
    for name in per_variant:
        total = sum(r.detections for r in report_.rows if r.variant == name)
        assert total >= 10_000, (name, total)

    assert per_variant["formula"] < per_variant["fixed_nimax"] < per_variant["ordinary"]

    low = lambda name: float(np.mean([r.mean_ns for r in report_.rows
                                      if r.variant == name and r.snr_db <= 20.0]))
    assert low("feedback") > low("ordinary")
    elapsed = time.time() - t0
    assert elapsed < 600.0
    ratios = {name: round(ratio, 1) for name, _, ratio in report_.summary}
    report(9, f"band-mean ratios {ratios}%, feedback/ordinary at <=20 dB = "
              f"{low('feedback') / low('ordinary'):.2f} ({elapsed:.0f} s)")


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed: byte-identical count columns for workers 1 and 8."""
    args = ["ber-sweep", "--nt", "4", "--nr", "4", "--mod", "qpsk", "--subcarriers", "8",
            "--snr", "6,10", "--seed", "7"]
    outputs = {}
    for workers in (1, 8, 8):
        out = tmp_path / f"w{workers}_{len(outputs)}"
        res = CliRunner().invoke(cli_main, args + ["--workers", str(workers), "--out", str(out)],
                                 catch_exceptions=False)
        assert res.exit_code == 0
        lines = (out / "ber_sweep.csv").read_text().strip().split("\n")
        counts = [ln.rsplit(",", 1)[0] for ln in lines if not ln.startswith(("#", "snr_db"))]
        outputs[out.name] = counts
        manifest = json.loads((out / "ber_sweep_manifest.json").read_text())
        assert manifest["seed"] == 7
    vals = list(outputs.values())
    assert vals[0] == vals[1] == vals[2]
    report(10, f"count columns byte-identical across workers 1 and 8: {vals[0]}")
