"""Monte Carlo engine: BER sweeps, calibration tables, policy comparison
and wall-clock complexity benchmarks.

Cells and determinism
---------------------
A sweep is split into independent cells, one per (SNR point, detector
variant) pair, or one per SNR point when variants must share draws (policy
comparison). Each cell owns a dedicated Philox stream keyed by
``(seed, cell stream id)``, so results are bit-identical for any worker
count and any scheduling: workers only decide *who* runs a cell, never
*what* it draws. Timing columns are the one exception; wall-clock numbers
differ run to run and are excluded from all determinism contracts.

Detection depths
----------------
A run names each detection depth one way, and ``_iterations`` resolves
every name to an iteration count at one SNR point: ``ordinary``
(``n_t - 1``), ``fixed_nimax`` (``n_imax``), and the two policies
``formula`` and ``feedback`` of :mod:`osicsim.policy`, which read the
point's SNR estimate and, for feedback, the calibration table against
``SweepConfig.target_ber``. A fixed count is not a policy: it is an entry
of ``SweepConfig.iters_list``.

Stopping rule
-------------
Each cell accumulates batches until it has seen at least ``min_symbols``
transmitted symbols and ``min_errors`` bit errors per variant, and gives
up at ``100 * min_symbols`` symbols; a point that stopped there short of
``min_errors`` is marked ``capped``. At the default thresholds a measured
point carries roughly <= 10% relative standard error. Statistical
assertions in the test suite (stream independence, K-invariance) use
fixed seeds, so they are deterministic in practice; re-seeding them is the
only way to make them flake.

Complexity benchmarks
---------------------
``bench_complexity`` times the scalar per-vector detection call (nulling
through export), never the vectorized sweep engine, because the metric of
interest is the per-detection cost of each algorithm variant. The
feedback variant is timed through ``feedback_detect`` and therefore pays
for its restarted passes and per-candidate table lookups. Benchmarking
always runs single-worker to keep the timer quiet.
"""

from __future__ import annotations

import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .batched import count_bit_errors, transmit_batch, vblast_indices_batch
from .channel import (
    RNG_ALGORITHM,
    gen_channel_batch,
    gen_noise_batch,
    link_snr,
    make_stream,
    random_bits,
)
from .detectors import NULLING_CORES, DetectorSpec, vblast_detect
from .modem import Constellation, bits_to_indices, get_constellation
from .policy import (
    CalibrationTable,
    estimate_snr,
    feedback_detect,
    feedback_iters,
    formula_iters,
    n_imax,
)

# target number of vector instances per engine batch; the draw layout is a
# whole number of channel uses (K vectors each), so the realized size is
# the smallest multiple of K at or above this
VECTORS_PER_BATCH = 1024

# stream ids: cells take 1..n_cells, pilot estimation gets its own block
_PILOT_STREAM_BASE = 2**32

# give up redrawing rank-deficient channels after this many rounds
_MAX_REDRAW_ROUNDS = 8

MIN_SYMBOLS_FLOOR = 10_000
MIN_ERRORS_FLOOR = 100
SYMBOL_BUDGET_FACTOR = 100

BENCH_WARMUP_CALLS = 100

POLICIES = ("formula", "feedback")
COMPARE_VARIANTS = ("formula", "feedback", "ordinary")
BENCH_VARIANTS = ("ordinary", "fixed_nimax", "formula", "feedback")


class ConfigError(ValueError):
    """Raised for invalid sweep configurations."""


class RankRetryError(RuntimeError):
    """Raised when more than 0.1% of channel draws needed rank redraws."""


@dataclass(frozen=True)
class SweepConfig:
    """Everything one Monte Carlo run needs, with validated invariants."""

    n_t: int = 8
    n_r: int = 8
    subcarriers: int = 64
    modulation: str = "qam16"
    core: str = "mmse"
    snr_db_list: tuple = (16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0)
    iters_list: tuple | None = None
    policy: str | None = None  # formula | feedback; None runs iters_list
    min_symbols: int = 10_000
    min_errors: int = 100
    seed: int = 1
    workers: int = 1
    snr_est: str = "genie"
    pilot_uses: int = 128
    target_ber: float = 1e-2
    bench_detections: int = 10_000

    def validate(self) -> "SweepConfig":
        if not (self.n_r >= self.n_t >= 1):
            raise ConfigError(f"need n_r >= n_t >= 1, got n_r={self.n_r}, n_t={self.n_t}")
        if self.subcarriers < 1:
            raise ConfigError(f"subcarriers must be >= 1, got {self.subcarriers}")
        try:
            get_constellation(self.modulation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.core not in NULLING_CORES:
            raise ConfigError(f"unknown core {self.core!r}, expected one of {NULLING_CORES}")
        if len(self.snr_db_list) == 0:
            raise ConfigError("snr_db_list must not be empty")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise ConfigError(f"snr_db_list entries must be finite, got {list(self.snr_db_list)}")
        if len(set(self.snr_db_list)) < len(self.snr_db_list):
            raise ConfigError(f"snr_db_list has duplicate points: {list(self.snr_db_list)}")
        if self.min_symbols < MIN_SYMBOLS_FLOOR:
            raise ConfigError(f"min_symbols must be >= {MIN_SYMBOLS_FLOOR}, got {self.min_symbols}")
        if self.min_errors < MIN_ERRORS_FLOOR:
            raise ConfigError(f"min_errors must be >= {MIN_ERRORS_FLOOR}, got {self.min_errors}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.snr_est not in ("genie", "pilot"):
            raise ConfigError(f"snr_est must be genie or pilot, got {self.snr_est!r}")
        if self.pilot_uses < 1:
            raise ConfigError(f"pilot_uses must be >= 1, got {self.pilot_uses}")
        if self.policy is not None and self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.policy is not None and self.iters_list is not None:
            raise ConfigError(
                f"set policy or iters_list, not both: policy={self.policy!r} picks the count, "
                f"iters_list={self.iters_list!r} would be ignored"
            )
        if self.iters_list is not None:
            for n in self.iters_list:
                if not (0 <= n <= self.n_t - 1):
                    raise ConfigError(f"iterations {n} outside [0, {self.n_t - 1}] (n_t = {self.n_t})")
        if self.bench_detections < 100:
            raise ConfigError(f"bench_detections must be >= 100, got {self.bench_detections}")
        if not (0.0 < self.target_ber < 0.5):  # 0.5 is the BER of a coin toss
            raise ConfigError(f"target_ber must lie in (0, 0.5), got {self.target_ber}")
        return self


@dataclass
class BerPoint:
    """One measured (SNR, variant) cell of a sweep.

    ``capped`` is True when the cell stopped at the symbol budget
    (``SYMBOL_BUDGET_FACTOR * min_symbols``) with this point still short
    of ``min_errors``, so its BER carries fewer errors than asked for.
    """

    snr_db: float
    n_i: int
    policy: str
    bit_errors: int
    total_bits: int
    mean_detect_ns: int
    capped: bool

    @property
    def ber(self) -> float:
        return self.bit_errors / self.total_bits


@dataclass
class BenchRow:
    variant: str
    snr_db: float
    n_i: int
    detections: int
    mean_ns: float
    bit_errors: int
    total_bits: int


@dataclass
class BenchReport:
    """Mean per-detection times and ratios against ordinary V-BLAST."""

    rows: list[BenchRow]
    summary: list[tuple[str, float, float]]  # (variant, band mean ns, ratio %)
    machine: str
    detections_per_cell: int


# ---------------------------------------------------------------------------
# cell plumbing


@dataclass(frozen=True)
class _Variant:
    tag: str
    n_i: int


@dataclass(frozen=True)
class _Cell:
    snr_db: float
    stream: int
    variants: tuple


def _batch_vectors(subcarriers: int) -> int:
    uses = max(1, math.ceil(VECTORS_PER_BATCH / subcarriers))
    return uses * subcarriers


def _draw(cfg: SweepConfig, c: Constellation, count: int, noise_var: float, rng):
    """``count`` transmissions: ``(h, tx_idx, noise, y)`` with ``y = H x + n``.

    The one draw order of every cell, pilot block and bench cell: channels,
    then payload bits (packed into point indices), then noise.
    """
    h = gen_channel_batch(count, cfg.n_r, cfg.n_t, rng)
    tx_idx = bits_to_indices(random_bits(rng, count * cfg.n_t * c.bits_per_symbol), c).reshape(count, cfg.n_t)
    noise = gen_noise_batch(count, cfg.n_r, noise_var, rng)
    return h, tx_idx, noise, transmit_batch(h, c.points[tx_idx], noise)


def _run_cell(cfg: SweepConfig, cell: _Cell) -> list[BerPoint]:
    c = get_constellation(cfg.modulation)
    link = link_snr(cell.snr_db, cfg.n_t)
    rng = make_stream(cfg.seed, cell.stream)
    batch = _batch_vectors(cfg.subcarriers)
    cap_symbols = SYMBOL_BUDGET_FACTOR * cfg.min_symbols

    def detect(h, y):
        """Each variant's detected indices and detect time, and where every variant detected."""
        outs, times, ok = [], [], np.ones(len(h), dtype=bool)
        for v in cell.variants:
            t0 = time.perf_counter_ns()
            out, _, ok_v = vblast_indices_batch(h, y, cfg.core, v.n_i, link, c)
            times.append(time.perf_counter_ns() - t0)
            outs.append(out)
            ok &= ok_v
        return outs, times, ok

    errors = [0] * len(cell.variants)
    detect_ns = [0] * len(cell.variants)
    symbols = 0
    retries = 0
    draws = 0

    while symbols < cap_symbols:
        h, tx_idx, noise, y = _draw(cfg, c, batch, link.noise_var, rng)
        draws += batch
        outs, times, ok = detect(h, y)

        # rank-deficient instances (measure-zero for Rayleigh draws) get a
        # fresh channel, kept consistent across all variants of the cell;
        # bits and noise are reused
        rounds = 0
        bad = np.flatnonzero(~ok)
        while bad.size:
            rounds += 1
            if rounds > _MAX_REDRAW_ROUNDS:
                raise RankRetryError(f"rank redraw did not converge for {bad.size} instances")
            retries += bad.size
            draws += bad.size
            h[bad] = gen_channel_batch(bad.size, cfg.n_r, cfg.n_t, rng)
            y[bad] = transmit_batch(h[bad], c.points[tx_idx[bad]], noise[bad])
            redone, _, ok_bad = detect(h[bad], y[bad])
            for out, out_bad in zip(outs, redone):
                out[bad] = out_bad
            bad = bad[~ok_bad]

        for k, out in enumerate(outs):
            errors[k] += count_bit_errors(tx_idx, out)
            detect_ns[k] += times[k]
        symbols += batch * cfg.n_t
        if symbols >= cfg.min_symbols and min(errors) >= cfg.min_errors:
            break

    if retries > 0.001 * draws:
        raise RankRetryError(f"{retries} rank redraws out of {draws} draws exceeds 0.1%")

    vectors = symbols // cfg.n_t
    return [
        BerPoint(cell.snr_db, v.n_i, v.tag, e, symbols * c.bits_per_symbol, int(ns / vectors), e < cfg.min_errors)
        for v, e, ns in zip(cell.variants, errors, detect_ns)
    ]


def _run_cells(cfg: SweepConfig, cells: list[_Cell]) -> list[BerPoint]:
    if cfg.workers == 1:
        chunks = [_run_cell(cfg, cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_cell, [cfg] * len(cells), cells))
    return [point for chunk in chunks for point in chunk]


def _point_estimate(cfg: SweepConfig, snr_db: float, point_index: int) -> float:
    """Operating-SNR estimate in dB for one sweep point, on the nominal axis."""
    if cfg.snr_est == "genie":
        return snr_db
    c = get_constellation(cfg.modulation)
    link = link_snr(snr_db, cfg.n_t)
    rng = make_stream(cfg.seed, _PILOT_STREAM_BASE + point_index)
    h, pilot_idx, _, y = _draw(cfg, c, cfg.pilot_uses, link.noise_var, rng)
    # estimate_snr measures per-unit-symbol-energy SNR; shift to nominal axis
    return estimate_snr(y, h, c.points[pilot_idx]) + 10.0 * math.log10(cfg.n_t)


def _iterations(name: str, cfg: SweepConfig, est_db: float, table: CalibrationTable | None) -> int:
    """Iteration count of detection depth ``name`` at the SNR estimate ``est_db``.

    ``ordinary`` and ``fixed_nimax`` do not read the estimate; ``feedback``
    looks ``est_db`` up in ``table`` against ``cfg.target_ber``.
    """
    if name == "ordinary":
        return cfg.n_t - 1
    if name == "fixed_nimax":
        return n_imax(cfg.n_t)
    if name == "formula":
        return formula_iters(est_db, cfg.n_t)
    return feedback_iters(est_db, table, cfg.target_ber, cfg.n_t)


# ---------------------------------------------------------------------------
# public operations


def run_ber_sweep(cfg: SweepConfig, table: CalibrationTable | None = None) -> list[BerPoint]:
    """Measure BER for every (SNR, variant) cell of the configuration.

    Variants come from ``cfg.iters_list`` (tag ``fixed``, ``[0]`` included;
    ``None`` runs ``n_t - 1``) or from ``cfg.policy`` (tagged with its
    name), resolved by ``_iterations`` per SNR point before any cell is
    dispatched; a pure linear run tagged ``zf``/``mmse`` is
    ``run_linear_sweep``.
    Deterministic given (seed, config); the worker count never changes
    counts, only wall-clock.
    """
    cfg.validate()
    if cfg.policy == "feedback":
        if table is None:
            raise ConfigError("feedback policy requires a calibration table")
        table.validate_for(cfg.modulation, cfg.n_t, cfg.core)

    cells = []
    for pi, snr_db in enumerate(cfg.snr_db_list):
        if cfg.policy is not None:
            n = _iterations(cfg.policy, cfg, _point_estimate(cfg, snr_db, pi), table)
            variants = (_Variant(cfg.policy, n),)
        else:
            iters = cfg.iters_list if cfg.iters_list is not None else (cfg.n_t - 1,)
            variants = tuple(_Variant("fixed", n) for n in iters)
        for v in variants:
            cells.append(_Cell(snr_db, len(cells) + 1, (v,)))
    return _run_cells(cfg, cells)


def run_linear_sweep(cfg: SweepConfig, detector: str) -> list[BerPoint]:
    """BER sweep of a pure linear detector (``zf`` or ``mmse``), whatever ``cfg.core`` says."""
    cfg.validate()
    if detector not in NULLING_CORES:
        raise ConfigError(f"unknown linear detector {detector!r}")
    cells = [
        _Cell(snr_db, i + 1, (_Variant(detector, 0),))
        for i, snr_db in enumerate(cfg.snr_db_list)
    ]
    return _run_cells(replace(cfg, core=detector), cells)


def calibrate(cfg: SweepConfig):
    """Measure the full (SNR, n_i) BER grid and derive required counts.

    Returns ``(table, derived)`` where ``derived`` lists, per SNR, the
    smallest ``n_i`` in ``[1, n_imax]`` whose measured BER meets
    ``cfg.target_ber`` (``n_imax`` when none does). The grid itself spans
    ``n_i = 0 .. n_imax``.
    """
    cfg.validate()
    target = cfg.target_ber
    nmax = n_imax(cfg.n_t)
    grid_cfg = replace(cfg, iters_list=tuple(range(0, nmax + 1)), policy=None)
    points = run_ber_sweep(grid_cfg)

    table = CalibrationTable(
        np.array([p.snr_db for p in points]),
        np.array([p.n_i for p in points]),
        np.array([p.ber for p in points]),
        np.array([p.total_bits // get_constellation(cfg.modulation).bits_per_symbol for p in points]),
        {
            "mod": cfg.modulation,
            "nt": cfg.n_t,
            "nr": cfg.n_r,
            "core": cfg.core,
            "seed": cfg.seed,
            "target": target,
        },
    )

    derived = []
    for snr_db in cfg.snr_db_list:
        by_n = {p.n_i: p.ber for p in points if p.snr_db == snr_db}
        chosen = nmax
        for n in range(1, nmax + 1):
            if by_n[n] <= target:
                chosen = n
                break
        derived.append((snr_db, chosen))
    return table, derived


def compare_policies(cfg: SweepConfig, table: CalibrationTable) -> list[BerPoint]:
    """Formula vs feedback vs ordinary V-BLAST on identical draws.

    All three variants of one SNR point share a cell (and therefore the
    same channel, bits and noise), so the emitted curves are paired.
    """
    cfg.validate()
    table.validate_for(cfg.modulation, cfg.n_t, cfg.core)
    cells = []
    for pi, snr_db in enumerate(cfg.snr_db_list):
        est_db = _point_estimate(cfg, snr_db, pi)
        variants = tuple(_Variant(name, _iterations(name, cfg, est_db, table)) for name in COMPARE_VARIANTS)
        cells.append(_Cell(snr_db, pi + 1, variants))
    return _run_cells(cfg, cells)


# ---------------------------------------------------------------------------
# complexity benchmark


def _machine_note() -> str:
    cpu = platform.processor() or "unknown-cpu"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.system()} {platform.machine()} | {cpu} | python {platform.python_version()}"


def _timed_calls(fn, args_iter):
    """Total ns, call count and outputs of ``fn`` over ``args_iter``, each call timed on its own."""
    total = 0
    outputs = []
    for a in args_iter:
        t0 = time.perf_counter_ns()
        outputs.append(fn(*a))
        total += time.perf_counter_ns() - t0
    return total, len(outputs), outputs


def bench_complexity(cfg: SweepConfig, table: CalibrationTable) -> BenchReport:
    """Per-detection wall-clock cost of each algorithm variant.

    Variants: ``ordinary`` (n_t - 1 iterations), ``fixed_nimax``,
    ``formula`` and ``feedback``. Each (variant, SNR) cell times
    ``cfg.bench_detections`` scalar detections after a discarded warmup,
    on that cell's own deterministic draws; the summary averages the mean
    per-detection time uniformly over the SNR list and normalises by the
    ordinary variant (ordinary = 100% by construction).
    """
    cfg.validate()
    table.validate_for(cfg.modulation, cfg.n_t, cfg.core)
    c = get_constellation(cfg.modulation)
    estimates = [_point_estimate(cfg, snr_db, pi) for pi, snr_db in enumerate(cfg.snr_db_list)]
    count = BENCH_WARMUP_CALLS + cfg.bench_detections
    rows: list[BenchRow] = []
    stream = 0
    for name in BENCH_VARIANTS:
        for snr_db, est_db in zip(cfg.snr_db_list, estimates):
            stream += 1
            link = link_snr(snr_db, cfg.n_t)
            rng = make_stream(cfg.seed, _PILOT_STREAM_BASE // 2 + stream)
            h, tx_idx, _, y = _draw(cfg, c, count, link.noise_var, rng)

            n_i = _iterations(name, cfg, est_db, table)
            if name == "feedback":  # restarted passes plus per-candidate lookups
                fn = lambda hb, yb: feedback_detect(
                    hb, yb, cfg.core, link, c, table, cfg.target_ber, est_db
                )[0]
            else:
                spec = DetectorSpec(cfg.core, n_i)
                fn = lambda hb, yb: vblast_detect(hb, yb, spec, link, c)

            for i in range(BENCH_WARMUP_CALLS):
                fn(h[i], y[i])
            timed_args = ((h[i], y[i]) for i in range(BENCH_WARMUP_CALLS, count))
            total_ns, n_calls, outputs = _timed_calls(fn, timed_args)
            rx_idx = np.array([trace.indices for trace in outputs])

            rows.append(
                BenchRow(
                    variant=name,
                    snr_db=snr_db,
                    n_i=n_i,
                    detections=n_calls,
                    mean_ns=total_ns / n_calls,
                    bit_errors=count_bit_errors(tx_idx[BENCH_WARMUP_CALLS:], rx_idx),
                    total_bits=n_calls * cfg.n_t * c.bits_per_symbol,
                )
            )

    band_mean = {
        name: float(np.mean([r.mean_ns for r in rows if r.variant == name]))
        for name in BENCH_VARIANTS
    }
    base = band_mean["ordinary"]
    summary = [(name, band_mean[name], 100.0 * band_mean[name] / base) for name in BENCH_VARIANTS]
    return BenchReport(rows, summary, _machine_note(), cfg.bench_detections)


# ---------------------------------------------------------------------------
# CSV output


def _meta_lines(cfg: SweepConfig, command: str, extra: dict | None = None) -> list[str]:
    kv = {
        "tool": f"osicsim-{__version__}",
        "cmd": command,
        "mod": cfg.modulation,
        "nt": cfg.n_t,
        "nr": cfg.n_r,
        "core": cfg.core,
        "k": cfg.subcarriers,
        "seed": cfg.seed,
        "min_symbols": cfg.min_symbols,
        "min_errors": cfg.min_errors,
        "workers": cfg.workers,
        "rng": RNG_ALGORITHM,
    }
    if extra:
        kv.update(extra)
    return ["# " + " ".join(f"{k}={v}" for k, v in kv.items())]


def format_ber_csv(points: list[BerPoint], cfg: SweepConfig, command: str, extra: dict | None = None) -> str:
    lines = _meta_lines(cfg, command, extra)
    lines.append("snr_db,n_i,policy,bit_errors,total_bits,ber,mean_detect_ns")
    for p in points:
        lines.append(
            f"{p.snr_db:g},{p.n_i},{p.policy},{p.bit_errors},{p.total_bits},"
            f"{p.ber:.12e},{p.mean_detect_ns}"
        )
    return "\n".join(lines) + "\n"


def format_bench_csv(report: BenchReport, cfg: SweepConfig) -> str:
    lines = _meta_lines(cfg, "bench", {"machine": report.machine.replace(" ", "_")})
    lines.append("variant,snr_db,n_i,detections,bit_errors,total_bits,mean_ns")
    for r in report.rows:
        lines.append(
            f"{r.variant},{r.snr_db:g},{r.n_i},{r.detections},{r.bit_errors},"
            f"{r.total_bits},{r.mean_ns:.1f}"
        )
    return "\n".join(lines) + "\n"


def format_bench_summary_csv(report: BenchReport) -> str:
    lines = [f"# machine={report.machine.replace(' ', '_')} detections_per_cell={report.detections_per_cell}"]
    lines.append("variant,band_mean_ns,ratio_pct")
    for name, mean_ns, ratio in report.summary:
        lines.append(f"{name},{mean_ns:.1f},{ratio:.1f}")
    return "\n".join(lines) + "\n"
