"""Link-level MIMO simulator for truncated V-BLAST detection.

Per-subcarrier flat Rayleigh MIMO channels, ZF/MMSE linear detectors, the
ordered successive-interference-cancellation (OSIC) V-BLAST loop with a
configurable iteration count, SNR-driven iteration policies, and a Monte
Carlo harness for BER sweeps, calibration tables and wall-clock
complexity benchmarks.
"""

__version__ = "0.1.0"

from .channel import SnrSpec, link_snr, make_stream
from .harness import BenchReport, BerPoint, SweepConfig, bench_complexity, calibrate, compare_policies, run_ber_sweep
from .modem import QAM16, QPSK, Constellation, get_constellation
from .policy import (
    CalibrationTable,
    estimate_snr,
    feedback_iters,
    formula_iters,
    n_imax,
)

__all__ = [
    "__version__",
    "SnrSpec", "link_snr", "make_stream",
    "BenchReport", "BerPoint", "SweepConfig", "bench_complexity", "calibrate", "compare_policies", "run_ber_sweep",
    "QAM16", "QPSK", "Constellation", "get_constellation",
    "CalibrationTable", "estimate_snr", "feedback_iters", "formula_iters", "n_imax",
]
