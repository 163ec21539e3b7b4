"""Link-level MIMO simulator for truncated V-BLAST detection.

Per-subcarrier flat Rayleigh MIMO channels, ZF/MMSE linear detectors, the
ordered successive-interference-cancellation (OSIC) V-BLAST loop with a
configurable iteration count, SNR-driven iteration policies, and a Monte
Carlo harness for BER sweeps, calibration tables and wall-clock
complexity benchmarks.

The package root holds only the version, so ``import osicsim`` loads
nothing else. Every other name is imported from the module that defines
it, such as ``osicsim.harness.run_ber_sweep`` or
``osicsim.policy.CalibrationTable``.
"""

__version__ = "0.1.0"
