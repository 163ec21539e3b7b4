"""The three benchmark workloads, run in-process through ``osicsim.harness``.

Each workload is a closed loop with one caller: a repetition runs the
workload's public harness call at each of its worker counts in turn
(``workers=1`` then ``workers=2`` on the sweeps) on the same seed, and the
next repetition starts only when the last call returned.
Why each workload was chosen is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

from osicsim import harness
from osicsim.harness import SweepConfig
from osicsim.modem import get_constellation
from osicsim.policy import CalibrationTable

CALIB_PATH = Path(__file__).with_name("calib_8x8_qam16.csv")

BENCH_VARIANTS = ("ordinary", "fixed_nimax", "formula", "feedback")


def _snr_range(start: float, stop: float, step: float) -> tuple:
    return tuple(float(start + i * step) for i in range(int(round((stop - start) / step)) + 1))


# name -> (harness entry point, worker counts of one repetition, config
# overrides on top of SweepConfig())
WORKLOADS = {
    # the default `osicsim ber-sweep`: 8x8 16-QAM MMSE, n_i = 7, 16:34:2 dB, K = 64
    "sweep-8x8-qam16": ("run_ber_sweep", (1, 2), {}),
    # ZF linear detection; min_symbols keeps every cell at the symbol floor
    "linear-4x4-qpsk": ("run_linear_sweep", (1, 2), dict(
        n_t=4, n_r=4, modulation="qpsk", core="zf", snr_db_list=_snr_range(0, 20, 2),
        min_symbols=200_000)),
    # scalar complexity bench over the acceptance-criterion-9 SNR list; it
    # always runs in one process, so a workers=2 call would only repeat it
    "bench-8x8-qam16": ("bench_complexity", (1,), dict(
        snr_db_list=_snr_range(16, 34, 3), bench_detections=100)),
}


def workload_config(name: str, seed: int) -> SweepConfig:
    return replace(SweepConfig(), seed=seed, **WORKLOADS[name][2]).validate()


@dataclass
class Context:
    """Everything one workload needs after set-up."""

    name: str
    entry: str
    workers: tuple
    cfg: SweepConfig
    table: CalibrationTable | None
    table_load_ns: tuple[int, int] | None  # perf_counter_ns at start and end

    def expected_ops(self) -> int:
        per_snr = len(BENCH_VARIANTS) if self.entry == "bench_complexity" else 1
        return per_snr * len(self.cfg.snr_db_list)


def setup(name: str, seed: int) -> Context:
    """Configs, the calibration table, and one warm-up run of the workload's call.

    The warm-up runs at every worker count the workload uses, so the first
    process pool is not started inside a timed call.
    """
    entry, workers, _ = WORKLOADS[name]
    cfg = workload_config(name, seed)
    table = None
    load_ns = None
    if entry == "bench_complexity":
        t0 = time.perf_counter_ns()
        table = CalibrationTable.load_csv(CALIB_PATH)
        load_ns = (t0, time.perf_counter_ns())
    ctx = Context(name, entry, workers, cfg, table, load_ns)
    # warm-up: the smallest run the harness accepts, at the first (fastest
    # to stop) SNR point for the sweeps and at the last one for the bench
    # (one feedback pass per detection there)
    if entry == "bench_complexity":
        small = replace(cfg, snr_db_list=cfg.snr_db_list[-1:], bench_detections=100)
    else:
        small = replace(cfg, snr_db_list=cfg.snr_db_list[:1], min_symbols=harness.MIN_SYMBOLS_FLOOR)
    for workers in ctx.workers:
        call(ctx, replace(small, workers=workers))
    return ctx


def call(ctx: Context, cfg: SweepConfig):
    """One call of the workload's harness entry point."""
    if ctx.entry == "run_ber_sweep":
        return harness.run_ber_sweep(cfg)
    if ctx.entry == "run_linear_sweep":
        return harness.run_linear_sweep(cfg, "zf")
    return harness.bench_complexity(cfg, ctx.table)


def rows_of(ctx: Context, result) -> list[dict]:
    """Normalise sweep points or bench rows to the checked columns.

    ``vectors`` is the number of detected vectors; ``drawn`` the number of
    channel draws the row needed without redraws.
    """
    if ctx.entry == "bench_complexity":
        warmup = harness.BENCH_WARMUP_CALLS
        return [dict(variant=r.variant, snr_db=r.snr_db, n_i=r.n_i, bit_errors=r.bit_errors,
                     total_bits=r.total_bits, vectors=r.detections, drawn=r.detections + warmup)
                for r in result.rows]
    per_vector = ctx.cfg.n_t * get_constellation(ctx.cfg.modulation).bits_per_symbol
    return [dict(variant=p.policy, snr_db=p.snr_db, n_i=p.n_i, bit_errors=p.bit_errors,
                 total_bits=p.total_bits, vectors=p.total_bits // per_vector,
                 drawn=p.total_bits // per_vector)
            for p in result]
