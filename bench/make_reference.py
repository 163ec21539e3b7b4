"""Regenerate ``reference.json``: the reference BER of every workload cell.

Usage (from the repository root; about four minutes on two cores):

    python3 bench/make_reference.py

Each distinct (system, core, SNR, n_i) cell is simulated with the batched
engine on its own Philox stream under a seed no benchmark run uses, until
it has ``TARGET_ERRORS`` bit errors or ``MAX_VECTORS`` vectors. The bench
rows are scalar detections; their reference is the batched engine at the
same (SNR, n_i), which the test suite pins to the scalar path. Alongside
the BER the file records the dispersion ``D = sum(k^2) / sum(k)`` of the
per-vector bit-error counts ``k``, which sets the width of the band in
``check.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from osicsim.batched import transmit_batch, vblast_indices_batch  # noqa: E402
from osicsim.channel import gen_channel_batch, gen_noise_batch, link_snr, make_stream, random_bits  # noqa: E402
from osicsim.modem import bits_to_indices, get_constellation  # noqa: E402
from osicsim.policy import CalibrationTable, IterationPolicy, decide_iterations, formula_iters, n_imax  # noqa: E402

REFERENCE_SEED = 0x5EED_0F_BE1C
TARGET_ERRORS = 2_000
MAX_VECTORS = 1_500_000
BATCH = 4096
WORKERS = 2


def _workloads():
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def simulate(cell: dict) -> dict:
    """Bit-error statistics of one (system, core, SNR, n_i) cell."""
    c = get_constellation(cell["modulation"])
    n_t, n_r, bps = cell["n_t"], cell["n_r"], c.bits_per_symbol
    link = link_snr(cell["snr_db"], n_t)
    rng = make_stream(REFERENCE_SEED, cell["stream"])
    errors = squares = vectors = 0
    while errors < TARGET_ERRORS and vectors < MAX_VECTORS:
        h = gen_channel_batch(BATCH, n_r, n_t, rng)
        tx = bits_to_indices(random_bits(rng, BATCH * n_t * bps), c).reshape(BATCH, n_t)
        y = transmit_batch(h, c.points[tx], gen_noise_batch(BATCH, n_r, link.noise_var, rng))
        rx, _, ok = vblast_indices_batch(h, y, cell["core"], cell["n_i"], link, c)
        k = np.bitwise_count(np.bitwise_xor(tx, rx)[ok]).sum(axis=1).astype(np.int64)
        errors += int(k.sum())
        squares += int((k * k).sum())
        vectors += int(ok.sum())
    total_bits = vectors * n_t * bps
    return dict(cell, ber=errors / total_bits, bit_errors=errors, total_bits=total_bits,
                vectors=vectors, dispersion=(squares / errors) if errors else float(n_t * bps),
                max_bits=n_t * bps)


def cells_for(workloads, name: str) -> list[dict]:
    entry = workloads.WORKLOADS[name][0]
    cfg = workloads.workload_config(name, seed=1)
    system = dict(n_t=cfg.n_t, n_r=cfg.n_r, modulation=cfg.modulation, core=cfg.core)
    if entry == "run_ber_sweep":
        return [dict(system, variant="fixed", snr_db=s, n_i=cfg.n_t - 1) for s in cfg.snr_db_list]
    if entry == "run_linear_sweep":
        return [dict(system, variant="zf", snr_db=s, n_i=0) for s in cfg.snr_db_list]
    table = CalibrationTable.load_csv(workloads.CALIB_PATH)
    feedback = IterationPolicy("feedback", target_ber=cfg.target_ber)
    n_of = {
        "ordinary": lambda s: cfg.n_t - 1,
        "fixed_nimax": lambda s: n_imax(cfg.n_t),
        "formula": lambda s: formula_iters(s, cfg.n_t),
        "feedback": lambda s: decide_iterations(feedback, s, cfg.n_t, table),
    }
    return [dict(system, variant=v, snr_db=s, n_i=n_of[v](s))
            for v in workloads.BENCH_VARIANTS for s in cfg.snr_db_list]


def main() -> int:
    workloads = _workloads()
    per_workload = {name: cells_for(workloads, name) for name in workloads.WORKLOADS}
    key = lambda c: (c["n_t"], c["n_r"], c["modulation"], c["core"], c["snr_db"], c["n_i"])
    distinct = {}
    for cells in per_workload.values():
        for cell in cells:
            distinct.setdefault(key(cell), {k: cell[k] for k in ("n_t", "n_r", "modulation", "core", "snr_db", "n_i")})
    jobs = [dict(cell, stream=i + 1) for i, cell in enumerate(distinct.values())]
    # slowest (high SNR, many iterations) first so the pool stays busy
    jobs.sort(key=lambda c: (-c["snr_db"], -c["n_i"]))
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        stats = {key(r): r for r in pool.map(simulate, jobs)}

    out = {
        "generator": "bench/make_reference.py",
        "seed": REFERENCE_SEED,
        "target_errors": TARGET_ERRORS,
        "max_vectors": MAX_VECTORS,
        "workloads": {},
    }
    fields = ("ber", "bit_errors", "total_bits", "vectors", "dispersion", "max_bits")
    for name, cells in per_workload.items():
        rows = []
        for cell in cells:
            s = stats[key(cell)]
            rows.append(dict(variant=cell["variant"], snr_db=cell["snr_db"], n_i=cell["n_i"],
                             **{f: s[f] for f in fields}))
            print(f"{name:16s} {cell['variant']:11s} {cell['snr_db']:5.1f} dB n_i={cell['n_i']} "
                  f"ber={s['ber']:.3e} errors={s['bit_errors']} D={s['dispersion']:.2f}")
        out["workloads"][name] = {"config": {k: v for k, v in cells[0].items() if k in ("n_t", "n_r", "modulation", "core")},
                                  "cells": rows}
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
