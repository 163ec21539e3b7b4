"""Monte Carlo engine: BER sweeps, calibration tables, policy comparison
and wall-clock complexity benchmarks.

This module only computes: it returns ``BerPoint`` lists, the calibration
table with its derived counts, and a ``BenchReport``. The text of every
output file is written by :mod:`osicsim.cli`, except the calibration
table's CSV, which :class:`~osicsim.policy.CalibrationTable` both writes
and reads back.

Cells and determinism
---------------------
A sweep is split into independent cells, one per (SNR point, detector
variant) pair, or one per SNR point when variants must share draws (policy
comparison). Each cell owns a dedicated Philox stream keyed by
``(seed, cell stream id)``, so results are bit-identical for any worker
count and any scheduling: workers only decide *who* runs a cell, never
*what* it draws. Timing columns are the one exception; wall-clock numbers
differ run to run and are excluded from all determinism contracts.

Within a cell, one helper thread draws batch i + 1 (channels, bits, noise
and ``y``) while the cell's own thread detects and counts batch i, so the
draw and the detect keep two cores busy. Only the helper touches the
cell's generator, and it draws the batches in order with no saved or
restored state, so batch i of a cell is the same draw whatever the
scheduling. It draws ahead unless batch i would stop the cell with every
instance counted; a cell that stops on its error target discards at most
one batch drawn ahead. An instance that some variant flags as rank
deficient (a Gram matrix it cannot invert; measure-zero for Rayleigh
channels) is left out of every variant's counts, and the cell draws on
until its stopping rule is met, so every count is the one a sequential
draw, detect and count loop gets. The estimate is conditioned on an
invertible channel, as it would be if only invertible channels were
drawn. A cell that excluded more than 0.1% of its draws raises
:class:`~osicsim.linalg.RankDeficiencyError`.
The helper lives in a ``with`` block for the cell, so it is joined on
every way out, and no thread is alive when a later call forks its pool.

Detection depths
----------------
The depths a run detects at are an argument of the operation, not part of
``SweepConfig``. Each depth is an integer iteration count (tagged
``fixed``) or a name, and ``_iterations`` resolves every depth to a count
at one SNR point: a count stays as it is, ``ordinary`` is ``n_t - 1``,
``fixed_nimax`` is ``n_imax``, and the two policies ``formula`` and
``feedback`` of :mod:`osicsim.policy` read the point's SNR estimate and,
for feedback, the calibration table against ``SweepConfig.target_ber``.
``_resolve_depths`` checks the depths of every operation by one rule.

Stopping rule
-------------
Each cell accumulates batches until it has counted at least
``min_symbols`` transmitted symbols and ``min_errors`` bit errors per
variant, and gives up once it has drawn ``100 * min_symbols`` symbols; a
point that stopped there short of ``min_errors`` is marked ``capped``. At
the default thresholds a measured point carries roughly <= 10% relative
standard error. Statistical
assertions in the test suite (stream independence, K-invariance) use
fixed seeds, so they are deterministic in practice; re-seeding them is the
only way to make them flake.

Complexity benchmarks
---------------------
``bench_complexity`` times whole batches of detections on
``batched.recompute_indices_batch``, which inverts the regularized Gram
matrix of the deflated channel afresh at every iteration, as the paper's
receiver does; the sweep engine's soft-estimate loop, which inverts once
per vector, would hide the cost of deeper truncation. The receiver
builds the Gram matrix once per call and deletes a row and a column per
detection, and each detection updates the soft estimates from one
column of the fresh inverse, so the fresh inversions are most of what
deeper truncation adds to a detection's time. Each (variant, SNR) cell
keeps the fastest of ``BENCH_REPEATS`` timings of one batch and divides
it by the batch size.
The feedback variant is ``policy.feedback_detect`` at the count the
point's estimate resolves to, which runs a full pass at each depth
``1 .. n_i`` and therefore pays for its restarts. Benchmarking always
runs single-worker to keep the timer quiet. A ``BenchReport`` holds the
rows and the summary; the CLI adds the machine note and the detection
count when it writes them.

Memory
------
Importing this module raises glibc's mmap and trim thresholds for the
whole process, pool workers included, so the megabyte-sized arrays a
batch frees stay in the heap and the next batch reuses their pages
instead of faulting in fresh ones. It also keeps glibc to one malloc
arena, so the batches the helper thread draws come from the same heap and
reuse the same pages, rather than from a second arena of their own. The
price is that the process's resident memory stays at its high-water mark
until it exits. On any libc other than glibc nothing changes.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral

import numpy as np

from .batched import NULLING_CORES, count_bit_errors, recompute_indices_batch, transmit_batch, vblast_indices_batch
from .channel import (
    gen_channel_batch,
    gen_noise_batch,
    link_snr,
    make_stream,
    random_bits,
)
from .linalg import RankDeficiencyError
from .modem import Constellation, bits_to_indices, get_constellation
from .policy import CalibrationTable, estimate_snr, feedback_detect, feedback_iters, formula_iters, n_imax

# Unused here: the benchmark's tracer wraps this module's ``vblast_detect``
# binding (span ``detectors.vblast_detect``) until its per-layer metrics
# stop reading it.
from .detectors import vblast_detect  # noqa: F401

# By default glibc serves every block of 128 KiB or more by a fresh mmap
# and unmaps it at free, and trims the heap top past 128 KiB, so each batch
# faulted in about a thousand fresh zeroed pages (8x8, 1024 vectors).
# Raising both thresholds keeps freed batch arrays in the heap, where the
# next batch reuses them. Either alone still faults: without the trim bound
# the heap top is handed back, and without the mmap bound large blocks
# never enter the heap. One arena: the cell's helper thread would otherwise
# get an arena of its own, and the batches it draws would hold a second heap.
_MMAP_THRESHOLD = 32 * 2**20  # glibc's largest on 64-bit
_TRIM_THRESHOLD = 128 * 2**20
_ARENA_MAX = 1


def _keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds and keep one malloc arena; a no-op on any other libc."""
    import ctypes

    libc = ctypes.CDLL(None)
    if hasattr(libc, "gnu_get_libc_version"):  # the parameter numbers below are glibc's
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
        libc.mallopt(-8, _ARENA_MAX)  # M_ARENA_MAX


_keep_freed_memory()

# target number of vector instances per engine batch; the draw layout is a
# whole number of channel uses (K vectors each), so the realized size is
# the smallest multiple of K at or above this
VECTORS_PER_BATCH = 1024

# the largest single draw a config may ask for, counted as its channel
# matrices (16 bytes per complex entry): an engine batch, a pilot block or a
# bench cell; a batch's draw peaks under 3 times its channel bytes, the
# sweep engine under 5 times and the recomputing receiver under 8 times
# (pinned by tests/test_harness.py::TestWorkingSet)
DRAW_BYTES_MAX = 2**29

# the Gauss-Jordan inverse loops in Python over the matrix order n_t; n_r
# is bounded too, so that no default draw of any command exceeds the budget
MAX_ANTENNAS = 32

# stream ids: cells take 1..n_cells, pilot estimation gets its own block
_PILOT_STREAM_BASE = 2**32

MIN_SYMBOLS_FLOOR = 10_000
MIN_ERRORS_FLOOR = 100
SYMBOL_BUDGET_FACTOR = 100
# so that a cell's symbol budget, SYMBOL_BUDGET_FACTOR * min_symbols, fits int64
_MIN_SYMBOLS_MAX = np.iinfo(np.int64).max // SYMBOL_BUDGET_FACTOR

BENCH_WARMUP_CALLS = 100
# each bench cell times its batch this many times and keeps the fastest
BENCH_REPEATS = 3

SNR_ESTIMATORS = ("genie", "pilot")
POLICIES = ("formula", "feedback")
COMPARE_VARIANTS = ("formula", "feedback", "ordinary")
# the bench times every depth name that _iterations resolves
BENCH_VARIANTS = ("ordinary", "fixed_nimax", *POLICIES)


class ConfigError(ValueError):
    """Raised for invalid sweep configurations."""


@dataclass(frozen=True)
class SweepConfig:
    """Everything one Monte Carlo run needs, with validated invariants."""

    n_t: int = 8
    n_r: int = 8
    subcarriers: int = 64
    modulation: str = "qam16"
    core: str = "mmse"
    snr_db_list: tuple = (16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0)
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
        if self.core not in NULLING_CORES:
            raise ConfigError(f"unknown core {self.core!r}, expected one of {NULLING_CORES}")
        if len(self.snr_db_list) == 0:
            raise ConfigError("snr_db_list must not be empty")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise ConfigError(f"snr_db_list entries must be finite, got {list(self.snr_db_list)}")
        try:  # the modulation and every SNR lie in the domains of the helpers that read them
            get_constellation(self.modulation)
            for snr_db in self.snr_db_list:
                link_snr(snr_db, self.n_t)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if len(set(self.snr_db_list)) < len(self.snr_db_list):
            raise ConfigError(f"snr_db_list has duplicate points: {list(self.snr_db_list)}")
        if not (MIN_SYMBOLS_FLOOR <= self.min_symbols <= _MIN_SYMBOLS_MAX):
            raise ConfigError(f"min_symbols must lie in [{MIN_SYMBOLS_FLOOR}, {_MIN_SYMBOLS_MAX}], got {self.min_symbols}")
        if self.min_errors < MIN_ERRORS_FLOOR:
            raise ConfigError(f"min_errors must be >= {MIN_ERRORS_FLOOR}, got {self.min_errors}")
        if not (0 <= self.seed < 2**64):  # a Philox key is an unsigned 64-bit integer
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.snr_est not in SNR_ESTIMATORS:
            raise ConfigError(f"snr_est must be one of {SNR_ESTIMATORS}, got {self.snr_est!r}")
        if self.pilot_uses < 1:
            raise ConfigError(f"pilot_uses must be >= 1, got {self.pilot_uses}")
        if self.bench_detections < 100:
            raise ConfigError(f"bench_detections must be >= 100, got {self.bench_detections}")
        if not (0.0 < self.target_ber < 0.5):  # 0.5 is the BER of a coin toss
            raise ConfigError(f"target_ber must lie in (0, 0.5), got {self.target_ber}")
        if self.n_r > MAX_ANTENNAS:
            raise ConfigError(f"n_t and n_r must be <= {MAX_ANTENNAS}, got n_t={self.n_t}, n_r={self.n_r}")
        draws = (
            ("subcarriers", "an engine batch", _batch_vectors(self.subcarriers)),
            ("pilot_uses", "a pilot block", self.pilot_uses if self.snr_est == "pilot" else 0),
            ("bench_detections", "a bench cell", BENCH_WARMUP_CALLS + self.bench_detections),
        )
        for key, what, vectors in draws:
            size = vectors * self.n_r * self.n_t * 16
            if size > DRAW_BYTES_MAX:
                raise ConfigError(
                    f"{key} = {getattr(self, key)} makes {what} of {vectors} {self.n_r}x{self.n_t} channels, "
                    f"{size} bytes, more than DRAW_BYTES_MAX = {DRAW_BYTES_MAX}"
                )
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

    def stops(vectors, errors):
        """The stopping rule: the symbol budget is drawn, or both targets are met on the counted vectors."""
        symbols = vectors * cfg.n_t
        return drawn * cfg.n_t >= cap_symbols or (symbols >= cfg.min_symbols and min(errors) >= cfg.min_errors)

    errors = [0] * len(cell.variants)
    detect_ns = [0] * len(cell.variants)
    vectors = drawn = 0

    # the helper thread draws batch i + 1 while this one detects batch i, and
    # it alone touches the generator; the with block joins it on every way out
    with ThreadPoolExecutor(max_workers=1) as helper:
        draw = partial(helper.submit, _draw, cfg, c, batch, link.noise_var, rng)
        ahead = None
        while True:
            h, tx_idx, _, y = (ahead or draw()).result()
            drawn += batch
            # no batch is drawn ahead of one that stops the cell if every instance of it counts
            ahead = None if stops(vectors + batch, errors) else draw()

            # a rank-deficient instance (measure-zero for Rayleigh draws) is
            # excluded from every variant's counts, so the cell draws on
            outs, ok = [], np.ones(batch, dtype=bool)
            for k, v in enumerate(cell.variants):
                t0 = time.perf_counter_ns()
                out, _, ok_v = vblast_indices_batch(h, y, cfg.core, v.n_i, link, c)
                detect_ns[k] += time.perf_counter_ns() - t0
                outs.append(out)
                ok &= ok_v
            vectors += int(np.count_nonzero(ok))
            for k, out in enumerate(outs):
                errors[k] += count_bit_errors(tx_idx[ok], out[ok])
            if stops(vectors, errors):
                break

    if 1000 * (drawn - vectors) > drawn:
        raise RankDeficiencyError(f"{drawn - vectors} rank-deficient instances out of {drawn} draws exceeds 0.1%")

    return [
        BerPoint(cell.snr_db, v.n_i, v.tag, e, vectors * cfg.n_t * c.bits_per_symbol, int(ns / drawn),
                 e < cfg.min_errors)
        for v, e, ns in zip(cell.variants, errors, detect_ns)
    ]


def _run_cells(cfg: SweepConfig, cells: list[_Cell]) -> list[BerPoint]:
    if cfg.workers == 1:
        chunks = [_run_cell(cfg, cell) for cell in cells]
    else:
        # imported here: the pool module loads multiprocessing and subprocess, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at the first submit, so it gets no more than there are cells or CPUs
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(cells), os.cpu_count() or 1) or 1) as pool:
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


def _iterations(depth, cfg: SweepConfig, est_db: float, table: CalibrationTable | None) -> int:
    """Iteration count of detection depth ``depth`` at the SNR estimate ``est_db``.

    A count is returned as it is; ``ordinary`` and ``fixed_nimax`` do not
    read the estimate; ``feedback`` looks ``est_db`` up in ``table``
    against ``cfg.target_ber``.
    """
    if not isinstance(depth, str):
        return depth
    if depth == "ordinary":
        return cfg.n_t - 1
    if depth == "fixed_nimax":
        return n_imax(cfg.n_t)
    if depth == "formula":
        return formula_iters(est_db, cfg.n_t)
    return feedback_iters(est_db, table, cfg.target_ber, cfg.n_t)


def _resolve_depths(cfg: SweepConfig, depths: tuple, table: CalibrationTable | None) -> list[tuple]:
    """``(snr_db, variants)`` per SNR point, one ``_Variant`` per entry of ``depths``.

    Checks ``cfg`` and ``depths`` first: a count must be an integer, not
    a bool, in ``[0, n_t - 1]``, a name must be one ``_iterations``
    resolves, and ``feedback`` needs a ``table`` made for this system. A
    count is tagged ``fixed``, a name with itself. A point's SNR estimate
    is made only where a policy reads it.
    """
    cfg.validate()
    for d in depths:
        if isinstance(d, str):
            if d not in BENCH_VARIANTS:
                raise ConfigError(f"unknown depth {d!r}, expected an iteration count or one of {BENCH_VARIANTS}")
        elif isinstance(d, bool):
            raise ConfigError(f"depth {d!r} is a bool, expected an iteration count or one of {BENCH_VARIANTS}")
        elif not (isinstance(d, Integral) and 0 <= d <= cfg.n_t - 1):
            raise ConfigError(f"iterations {d} outside [0, {cfg.n_t - 1}] (n_t = {cfg.n_t})")
    if "feedback" in depths:
        if table is None:
            raise ConfigError("feedback policy requires a calibration table")
        table.validate_for(cfg.modulation, cfg.n_t, cfg.n_r, cfg.core)
    reads_estimate = any(d in POLICIES for d in depths)
    points = []
    for pi, snr_db in enumerate(cfg.snr_db_list):
        est_db = _point_estimate(cfg, snr_db, pi) if reads_estimate else None
        variants = tuple(
            _Variant(d if isinstance(d, str) else "fixed", _iterations(d, cfg, est_db, table)) for d in depths
        )
        points.append((snr_db, variants))
    return points


# ---------------------------------------------------------------------------
# public operations


def run_ber_sweep(cfg: SweepConfig, depths=None, *, table: CalibrationTable | None = None) -> list[BerPoint]:
    """Measure BER for every (SNR, depth) cell of the configuration.

    Each entry of ``depths`` is an iteration count (tag ``fixed``, ``0``
    included) or a depth name that ``_iterations`` resolves per SNR point
    before any cell is dispatched (``ordinary``, ``fixed_nimax``,
    ``formula``, or ``feedback``, which needs ``table``), tagged with that
    name; ``None`` runs ``n_t - 1``. A pure linear run tagged
    ``zf``/``mmse`` is ``run_linear_sweep``, which runs depth ``0`` here.
    Deterministic given (seed, config, depths); the worker count never
    changes counts, only wall-clock.
    """
    depths = (cfg.n_t - 1,) if depths is None else tuple(depths)
    cells = []
    for snr_db, variants in _resolve_depths(cfg, depths, table):
        for v in variants:
            cells.append(_Cell(snr_db, len(cells) + 1, (v,)))
    return _run_cells(cfg, cells)


def run_linear_sweep(cfg: SweepConfig, detector: str) -> list[BerPoint]:
    """BER sweep of a pure linear detector (``zf`` or ``mmse``), whatever ``cfg.core`` says.

    :func:`run_ber_sweep` at depth ``0`` with ``detector`` as the core, its
    points tagged ``detector``.
    """
    return [replace(p, policy=detector) for p in run_ber_sweep(replace(cfg, core=detector), (0,))]


def calibrate(cfg: SweepConfig):
    """Measure the full (SNR, n_i) BER grid and derive required counts.

    Returns ``(table, derived, points)`` where ``derived`` lists, per SNR, the
    count the feedback policy reads off the new table at that SNR,
    ``policy.feedback_iters``: the smallest ``n_i`` in ``[1, n_imax]`` whose
    measured BER meets ``cfg.target_ber`` (``n_imax`` when none does). The
    BER is the table's, read as feedback reads it: through ``log10``, with
    a zero-error cell counted as BER 1e-12. ``points`` is the measured grid
    itself, ``n_i = 0 .. n_imax`` per SNR, whose ``capped`` flags the table
    does not carry.
    """
    cfg.validate()
    points = run_ber_sweep(cfg, tuple(range(n_imax(cfg.n_t) + 1)))

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
            "target": cfg.target_ber,
        },
    )
    derived = [(snr_db, feedback_iters(snr_db, table, cfg.target_ber, cfg.n_t)) for snr_db in cfg.snr_db_list]
    return table, derived, points


def compare_policies(cfg: SweepConfig, table: CalibrationTable) -> list[BerPoint]:
    """Formula vs feedback vs ordinary V-BLAST on identical draws.

    All three variants of one SNR point share a cell (and therefore the
    same channel, bits and noise), so the emitted curves are paired.
    """
    points = _resolve_depths(cfg, COMPARE_VARIANTS, table)
    cells = [_Cell(snr_db, pi + 1, variants) for pi, (snr_db, variants) in enumerate(points)]
    return _run_cells(cfg, cells)


# ---------------------------------------------------------------------------
# complexity benchmark


def bench_complexity(cfg: SweepConfig, table: CalibrationTable) -> BenchReport:
    """Per-detection wall-clock cost of each algorithm variant.

    Variants: ``ordinary`` (n_t - 1 iterations), ``fixed_nimax``,
    ``formula`` and ``feedback``. Each (variant, SNR) cell draws its own
    deterministic vectors, detects its ``BENCH_WARMUP_CALLS`` warm-up
    vectors as one discarded batch, then times one batch of
    ``cfg.bench_detections`` detections ``BENCH_REPEATS`` times;
    ``mean_ns`` is the fastest repeat over the detection count. The cells
    run SNR-major, so the variants of one SNR point are timed back to back;
    rows are variant-major. The summary averages ``mean_ns`` uniformly
    over the SNR list and normalises by the ordinary variant (ordinary =
    100% by construction). Raises :class:`RankDeficiencyError` if any
    drawn channel cannot be inverted, rather than count its garbage.
    """
    points = _resolve_depths(cfg, BENCH_VARIANTS, table)
    c = get_constellation(cfg.modulation)
    warm = BENCH_WARMUP_CALLS
    rows = [None] * (len(BENCH_VARIANTS) * len(points))
    for pi, (snr_db, variants) in enumerate(points):
        link = link_snr(snr_db, cfg.n_t)
        for k, v in enumerate(variants):
            cell = k * len(points) + pi  # variant-major, as rows and stream ids are
            rng = make_stream(cfg.seed, _PILOT_STREAM_BASE // 2 + cell + 1)
            h, tx_idx, _, y = _draw(cfg, c, warm + cfg.bench_detections, link.noise_var, rng)
            receive = feedback_detect if v.tag == "feedback" else recompute_indices_batch
            _, _, ok_warm = receive(h[:warm], y[:warm], cfg.core, v.n_i, link, c)
            h, y = h[warm:], y[warm:]
            times = []
            for _ in range(BENCH_REPEATS):
                t0 = time.perf_counter_ns()
                rx_idx, _, ok = receive(h, y, cfg.core, v.n_i, link, c)
                times.append(time.perf_counter_ns() - t0)
            if not (ok_warm.all() and ok.all()):
                raise RankDeficiencyError(f"bench cell {v.tag} at {snr_db:g} dB drew a channel it cannot invert")

            rows[cell] = BenchRow(
                variant=v.tag,
                snr_db=snr_db,
                n_i=v.n_i,
                detections=cfg.bench_detections,
                mean_ns=min(times) / cfg.bench_detections,
                bit_errors=count_bit_errors(tx_idx[warm:], rx_idx),
                total_bits=cfg.bench_detections * cfg.n_t * c.bits_per_symbol,
            )

    band_mean = {
        name: float(np.mean([r.mean_ns for r in rows if r.variant == name]))
        for name in BENCH_VARIANTS
    }
    base = band_mean["ordinary"]
    summary = [(name, band_mean[name], 100.0 * band_mean[name] / base) for name in BENCH_VARIANTS]
    return BenchReport(rows, summary)
