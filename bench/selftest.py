"""Self-test of the benchmark's correctness checks and tracer.

Usage, from the repository root (a few seconds):

    python3 bench/selftest.py

It shows that ``failed`` rises when a wrong BER is planted, when the
``workers=1`` and ``workers=2`` counts of a pair disagree, when the counts
of one seed change between repetitions, and when a real
wrong detector (MMSE in place of ZF) runs the linear workload's cells;
that the correct detector passes the band on several seeds; and that a
wrapped function that no longer exists is reported as missing rather
than as a zero. Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import check
import run
import tracer as tracing


def _expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        raise SystemExit(1)


def _rows_at_reference(reference: dict, total_bits: int) -> list[dict]:
    """Rows whose error counts sit exactly at the reference BER."""
    return [dict(variant=v, snr_db=s, n_i=c["n_i"], total_bits=total_bits,
                 bit_errors=round(c["ber"] * total_bits), vectors=1, drawn=1)
            for (v, s), c in sorted(reference.items())]


def _rep(*runs) -> list:
    return [run.Call(workers, 1.0, rows) for workers, rows in enumerate(runs, start=1)]


def planted_failures() -> None:
    reference = check.load_reference("sweep-8x8-qam16")
    good = _rows_at_reference(reference, total_bits=4_000_000)
    n = len(good)
    attempted, failures = run.evaluate([_rep(good, [dict(r) for r in good])], n, reference)
    _expect(attempted == 2 * n and not failures, f"rows at the reference BER pass ({attempted} operations)")

    wrong = [dict(r) for r in good]
    wrong[3]["bit_errors"] *= 3
    _, failures = run.evaluate([_rep(wrong, wrong)], n, reference)
    _expect(len(failures) == 2, f"a tripled BER on one cell fails that cell in both runs: {failures[:1]}")

    shifted = [dict(r) for r in good]
    shifted[0]["bit_errors"] += 1
    _, failures = run.evaluate([_rep(good, shifted)], n, reference)
    _expect(len(failures) == 2 * n, f"a workers=1/workers=2 count mismatch fails all {2 * n} cells")

    attempted, failures = run.evaluate([_rep(good, good), _rep(shifted, shifted)], n, reference)
    _expect(len(failures) == 2 * n, f"a repetition whose counts changed fails all its cells ({len(failures)} of {attempted})")

    _, failures = run.evaluate([_rep(good, None)], n, reference)
    _expect(len(failures) == n, "a harness call that raised fails each of its cells")


def detector_check(workloads) -> None:
    name = "linear-4x4-qpsk"
    reference = check.load_reference(name)
    small = dict(snr_db_list=(0.0, 4.0, 8.0, 12.0), min_symbols=40_000)
    for seed in (3, 17, 2024):
        cfg = replace(workloads.workload_config(name, seed), **small)
        ctx = workloads.Context(name, "run_linear_sweep", (1,), cfg, None, None)
        rows = workloads.rows_of(ctx, workloads.harness.run_linear_sweep(cfg, "zf"))
        failures = check.check_rep([rows], len(rows), reference, rows)
        _expect(not failures, f"ZF passes the band at seed {seed}")
    rows = workloads.rows_of(ctx, workloads.harness.run_linear_sweep(cfg, "mmse"))
    for row in rows:
        row["variant"] = "zf"  # present MMSE results as if ZF had produced them
    failures = check.check_rep([rows], len(rows), reference, rows)
    _expect(len(failures) >= 2, f"MMSE in place of ZF fails {len(failures)} of {len(rows)} cells")


def missing_layer(harness) -> None:
    saved = harness.feedback_detect
    del harness.feedback_detect
    try:
        t = tracing.Tracer("selftest")
    finally:
        harness.feedback_detect = saved
    _expect("osicsim.harness.feedback_detect" in t.missing, "a vanished function is listed as missing")
    _expect("policy.feedback_detect" in t.missing_spans(), "its span is marked missing")
    metrics = {name for name, (_, spans) in run.PER_LAYER.items() if t.missing_spans().intersection(spans)}
    _expect({"policy.feedback_s", "harness.self_s"} <= metrics, "the metrics built on it are reported as null")


def main() -> int:
    workloads = run.import_program()
    planted_failures()
    detector_check(workloads)
    missing_layer(workloads.harness)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
