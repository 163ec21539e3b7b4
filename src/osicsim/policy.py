"""Iteration-count rules for the truncated V-BLAST detector.

Two policies pick how many cancellation iterations to run from the
operating SNR (a fixed count is not a policy: it is an integer depth of
the run):

* ``formula``: the closed-form fit
  ``N_i = min(floor(n_t / 2), max(1, round((53 - 2 * snr_db) / 3)))`` with
  round-half-away-from-zero. The linear term is a least-surprise fit of
  the calibrated (SNR, N_i) anchors for the 8x8 16-QAM system; it
  reproduces all six of them (16, 21, 22, 23.3, 25 and 34 dB) exactly;
* ``feedback``: walk ``n = 1 .. n_imax`` and stop at the first count whose
  precharacterized BER at the estimated SNR meets the target. The BER
  predictor is a :class:`CalibrationTable` produced offline by the
  ``calibrate`` harness command; lookups interpolate linearly in
  ``(snr_db, log10 ber)`` between bracketing rows. Estimates below the
  table's SNR range yield ``n_imax``, above it ``1``.

The functions here take the SNR estimate in dB and the target BER as
plain arguments; the harness resolves every detection depth of a run in
one place (``harness._iterations``), once per SNR operating point, with
the target from ``SweepConfig.target_ber``.

``feedback_detect`` models the feedback receiver's cost structure on one
vector: each candidate count runs a fresh truncated detection pass (the
nulling/slicing/cancellation loop restarts, as the flowchart's re-entry
implies), followed by one table lookup and branch. The detected output
equals a single pass at the accepted count; only the cost differs. The
complexity benchmark runs the same restarts on whole batches
(``harness.bench_complexity``); this scalar receiver is the reference
that tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .detectors import DetectorSpec, DetectionTrace, vblast_detect

# log-domain floor so zero-error table cells stay interpolable
_LOG_BER_FLOOR = 1e-12

# pilot-aided estimates are capped here when the measured noise vanishes
SNR_ESTIMATE_CAP_DB = 60.0


class CalibrationError(ValueError):
    """Raised for empty, incomplete or mismatched calibration tables."""


def n_imax(n_t: int) -> int:
    """Largest useful iteration count: ``floor(n_t / 2)``.

    Beyond this point extra cancellation iterations bring no significant
    BER improvement.
    """
    if n_t < 1:
        raise ValueError(f"n_t must be positive, got {n_t}")
    return n_t // 2


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def formula_iters(snr_db: float, n_t: int) -> int:
    """Closed-form iteration count for the operating SNR (nominal dB axis)."""
    if n_t < 2:
        raise ValueError(f"formula_iters needs n_t >= 2, got {n_t}")
    if not math.isfinite(snr_db):
        raise ValueError(f"formula_iters needs a finite SNR, got {snr_db}")
    return min(n_imax(n_t), max(1, _round_half_away((53.0 - 2.0 * snr_db) / 3.0)))


def _snr_text(snr_db: float) -> str:
    """``snr_db`` as ``:g`` writes it where that is exact, else its shortest round-trip form."""
    text = f"{snr_db:g}"
    return text if float(text) == snr_db else repr(float(snr_db))


@dataclass
class CalibrationTable:
    """Precomputed (snr_db, n_i) -> BER grid plus its experiment metadata.

    ``meta`` must carry at least ``mod``, ``nt``, ``nr``, ``core`` so a
    detection run can refuse a table calibrated for a different
    configuration.
    """

    snr_db: np.ndarray
    n_i: np.ndarray
    ber: np.ndarray
    symbols: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.snr_db = np.asarray(self.snr_db, dtype=float)
        self.n_i = np.asarray(self.n_i, dtype=int)
        self.ber = np.asarray(self.ber, dtype=float)
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        if not (len(self.snr_db) == len(self.n_i) == len(self.ber) == len(self.symbols)):
            raise CalibrationError("table columns have unequal lengths")
        if len(self.snr_db) == 0:
            raise CalibrationError("calibration table is empty")
        if not (np.isfinite(self.snr_db).all() and np.isfinite(self.ber).all()):
            raise CalibrationError("table SNR and BER values must be finite")
        if np.any((self.ber < 0) | (self.ber > 1)):
            raise CalibrationError("table BER values outside [0, 1]")
        if np.any(self.symbols < 0):
            raise CalibrationError("table symbol counts must be non-negative")
        seen = set()
        for row in zip(self.snr_db.tolist(), self.n_i.tolist()):
            if row in seen:
                raise CalibrationError(f"table has duplicate rows for (snr_db, n_i) = {row}")
            seen.add(row)

    # -- lookups ---------------------------------------------------------

    def _curve(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        mask = self.n_i == n
        if not mask.any():
            raise CalibrationError(f"table has no rows for n_i = {n}")
        order = np.argsort(self.snr_db[mask])
        return self.snr_db[mask][order], self.ber[mask][order]

    def interp_ber(self, snr_db: float, n: int) -> float:
        """BER at ``snr_db`` for ``n`` iterations, log-linear between rows.

        ``snr_db`` must lie inside the table's SNR span; range handling is
        the caller's job (see :func:`feedback_iters`).
        """
        snrs, bers = self._curve(n)
        logs = np.log10(np.maximum(bers, _LOG_BER_FLOOR))
        return float(10.0 ** np.interp(snr_db, snrs, logs))

    def meets_target(self, snr_db: float, n: int, target_ber: float) -> bool:
        """Whether ``n`` iterations reach ``target_ber`` at ``snr_db``.

        Below the table's SNR span nothing qualifies; above it everything
        does. This is the single predicate both the planner
        (:func:`feedback_iters`) and the in-loop detector
        (:func:`feedback_detect`) consult, so the two always agree.
        """
        if snr_db < self.snr_db.min():
            return False
        if snr_db > self.snr_db.max():
            return True
        return self.interp_ber(snr_db, n) <= target_ber

    def validate_for(self, mod: str, nt: int, core: str) -> None:
        for key, want in (("mod", mod), ("nt", nt), ("core", core)):
            have = self.meta.get(key)
            if have is None or str(have) != str(want):
                raise CalibrationError(
                    f"calibration table {key}={have!r} does not match run configuration {key}={want!r}"
                )
        covered = set(self.n_i.tolist())
        need = set(range(1, n_imax(nt) + 1))
        if not need <= covered:
            raise CalibrationError(f"table covers n_i {sorted(covered)}, run needs {sorted(need)}")

    # -- persistence -----------------------------------------------------

    def to_csv(self) -> str:
        """The table as CSV; every SNR reloads as the same float."""
        lines = ["# " + " ".join(f"{k}={v}" for k, v in self.meta.items()), "snr_db,n_i,ber,symbols"]
        lines += [f"{_snr_text(s)},{n},{b:.12e},{m}" for s, n, b, m in zip(self.snr_db, self.n_i, self.ber, self.symbols)]
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        Path(path).write_text(self.to_csv())

    @classmethod
    def load_csv(cls, path) -> "CalibrationTable":
        meta = {}
        rows = []
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if "=" in tok:
                            k, v = tok.split("=", 1)
                            meta[k] = v
                    continue
                if line.startswith("snr_db"):
                    continue
                try:
                    s, n, b, m = line.split(",")
                    rows.append((float(s), int(n), float(b), int(m)))
                except ValueError:
                    raise CalibrationError(
                        f"{path}:{ln}: expected snr_db,n_i,ber,symbols (numbers; n_i and symbols integers), got {line!r}"
                    ) from None
        if not rows:
            raise CalibrationError(f"no data rows in calibration file {path}")
        arr = list(zip(*rows))
        return cls(np.array(arr[0]), np.array(arr[1]), np.array(arr[2]), np.array(arr[3]), meta)


def feedback_iters(snr_db: float, table: CalibrationTable, target_ber: float, n_t: int) -> int:
    """Smallest ``n`` in ``[1, n_imax]`` whose table BER meets the target at the estimate ``snr_db``.

    Returns ``n_imax`` when no count qualifies (including estimates below
    the table's SNR range) and ``1`` for estimates above it.
    """
    snr_db = float(snr_db)
    if not math.isfinite(snr_db):
        raise ValueError(f"SNR estimate must be finite, got {snr_db}")
    nmax = n_imax(n_t)
    for n in range(1, nmax + 1):
        if table.meets_target(snr_db, n, target_ber):
            return n
    return nmax


def estimate_snr(y_pilot, h, x_pilot) -> float:
    """Pilot-aided SNR estimate in dB from known transmit blocks.

    ``y_pilot``/``x_pilot`` may be single vectors or stacks of pilot uses
    (leading axis); ``h`` is the known channel, either shared across uses
    or stacked alongside. The noise variance estimate is the mean of
    ``||y - h x||^2 / n_r`` over pilot uses and the returned value is
    ``-10 log10(noise_var)``, capped at ``+SNR_ESTIMATE_CAP_DB`` when the
    measured residual vanishes.
    """
    y = np.atleast_2d(np.asarray(y_pilot, dtype=np.complex128))
    x = np.atleast_2d(np.asarray(x_pilot, dtype=np.complex128))
    h = np.asarray(h, dtype=np.complex128)
    if y.size == 0 or x.size == 0:
        raise ValueError("degenerate pilot block: no pilot uses")
    if h.ndim == 2:
        hx = x @ h.T  # (P, n_r)
    elif h.ndim == 3:
        hx = np.einsum("pij,pj->pi", h, x)
    else:
        raise ValueError("channel must be a matrix or a stack of matrices")
    if hx.shape != y.shape:
        raise ValueError(f"pilot shapes disagree: y {y.shape}, h x {hx.shape}")
    n_r = y.shape[1]
    noise_var = float(np.mean(np.sum(np.abs(y - hx) ** 2, axis=1) / n_r))
    if noise_var <= 0.0:
        return SNR_ESTIMATE_CAP_DB
    return min(SNR_ESTIMATE_CAP_DB, -10.0 * math.log10(noise_var))


def feedback_detect(
    h,
    y,
    core: str,
    snr,
    c,
    table: CalibrationTable,
    target_ber: float,
    est_snr_db: float,
) -> tuple[DetectionTrace, int]:
    """Detect one vector the way the feedback receiver does.

    Runs a fresh truncated V-BLAST pass at each candidate count
    ``m = 1, 2, ...`` and after each pass performs one table lookup and
    branch; stops at the first count that meets the target, or at
    ``n_imax``. The output is identical to a single pass at the accepted
    count; the restarts exist to model (and be charged for) the feedback
    algorithm's repeated nulling/slicing/cancellation work, which is what
    makes it costlier than ordinary V-BLAST at low SNR. The batched bench
    runs the same passes and lookups; this scalar form is the reference
    that tests compare against.
    """
    h = np.asarray(h, dtype=np.complex128)
    nmax = n_imax(h.shape[1])
    if nmax == 0:
        return vblast_detect(h, y, DetectorSpec(core, 0), snr, c), 0
    trace = None
    for m in range(1, nmax + 1):
        trace = vblast_detect(h, y, DetectorSpec(core, m), snr, c)
        if table.meets_target(est_snr_db, m, target_ber):
            return trace, m
    return trace, nmax


# Only ``bench/make_reference.py`` still names these two; they go when the
# benchmark's reference generator is rebound to the harness. The package
# itself resolves every detection depth in ``harness._iterations``.
class IterationPolicy(NamedTuple):
    """A policy name (``formula`` or ``feedback``) and its target BER."""

    kind: str
    target_ber: float


def decide_iterations(
    policy: IterationPolicy, snr_db: float, n_t: int, table: CalibrationTable | None = None
) -> int:
    """The iteration count ``policy`` picks at the SNR estimate ``snr_db``."""
    if policy.kind == "formula":
        return formula_iters(snr_db, n_t)
    return feedback_iters(snr_db, table, policy.target_ber, n_t)
