"""Correctness checks behind ``failed`` / ``failed_frac``.

An operation is one sweep cell or one bench (variant, SNR) row. It fails
when the call that produced it raised, when it has no committed reference,
when its iteration count differs from the reference, or when its bit-error
count falls outside the band around the reference BER.

The band is a dispersion-corrected binomial band. Bit errors cluster
(one wrong symbol flips several bits and OSIC propagates errors), so the
variance of a bit-error count is at most ``D`` times its mean, where ``D``
is the reference run's ``sum(k^2) / sum(k)`` over per-vector bit-error
counts ``k``. The half-width is ``Z`` standard deviations of the count,
widened for the reference's own sampling error, plus one worst-case
vector (``max_bits``, every bit of a vector wrong) so that rows with few
expected errors cannot fail on a single unlucky vector. At ``Z = 6`` a
correct detector fails a cell with negligible probability for any seed
and any RNG scheme. The band is wide where errors cluster and are few: on
the 8x8 sweep it spans about +-30% of the reference at 16 dB and up to
3.6 times the reference at 34 dB (100 errors, ``D`` = 13.6); on the 4x4
ZF cells it is +-10 to 20%, narrow enough that MMSE run in place of ZF
fails (``selftest.py``).

Every call on one seed must give identical count columns, whatever its
worker count: on the sweeps, if the ``workers=1`` and ``workers=2``
results differ, every cell of the pair fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

Z = 6.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(workload: str) -> dict:
    """Reference cells of one workload, keyed by ``(variant, snr_db)``."""
    data = json.loads(REFERENCE_PATH.read_text())
    return {(c["variant"], float(c["snr_db"])): c for c in data["workloads"][workload]["cells"]}


def band(ref: dict, total_bits: int) -> tuple[float, float]:
    """Allowed ``[low, high]`` bit-error counts for ``total_bits`` bits."""
    mu = ref["ber"] * total_bits
    var = ref["dispersion"] * mu * (1.0 + mu / max(ref["bit_errors"], 1))
    half = Z * math.sqrt(var) + ref["max_bits"]
    return mu - half, mu + half


def cell_failure(row: dict, reference: dict) -> str | None:
    """Reason the row fails against the reference, or None if it passes."""
    ref = reference.get((row["variant"], float(row["snr_db"])))
    if ref is None:
        return f"no reference for {row['variant']} at {row['snr_db']} dB"
    if row["n_i"] != ref["n_i"]:
        return f"{row['variant']} at {row['snr_db']} dB ran n_i={row['n_i']}, reference n_i={ref['n_i']}"
    low, high = band(ref, row["total_bits"])
    if not low <= row["bit_errors"] <= high:
        return (f"{row['variant']} at {row['snr_db']} dB: {row['bit_errors']} bit errors in "
                f"{row['total_bits']} bits, band [{max(low, 0.0):.1f}, {high:.1f}]")
    return None


def count_columns(rows: list[dict]) -> list[tuple]:
    """The deterministic columns of a result, in order."""
    return [(r["variant"], float(r["snr_db"]), r["n_i"], r["bit_errors"], r["total_bits"]) for r in rows]


def check_rep(runs: list, expected: int, reference: dict, baseline: list[dict] | None) -> list[str]:
    """One failure reason per failed operation of one repetition.

    ``runs`` holds the rows of each harness call of the repetition (the
    ``workers=1`` call, then the ``workers=2`` one on the sweeps), or None
    for a call that raised. Every call of one seed must give the count
    columns of ``baseline``; if any call of the repetition does not, every
    cell of the repetition fails.
    """
    done = [rows for rows in runs if rows is not None]
    failures = ["the harness call raised"] * expected * (len(runs) - len(done))
    if baseline is not None and any(count_columns(rows) != count_columns(baseline) for rows in done):
        return failures + ["count columns differ between calls on one seed"] * expected * len(done)
    for rows in done:
        failures += [r for r in (cell_failure(row, reference) for row in rows) if r]
        failures += ["operation missing from the result"] * max(0, expected - len(rows))
    return failures
