"""Check that two ``osicsim`` source trees make the same detection decisions.

Loads the package of each tree under a name of its own and runs both OSIC
loops, ``batched.vblast_indices_batch`` (the sweep engine's, which
inverts once and updates soft estimates) and
``batched.recompute_indices_batch`` (the recomputing receiver's), on the
same inputs. The grid is every system of ``SYSTEMS`` x both nulling cores
x ``SNRS_DB`` x every depth from 0 to ``n_t - 1`` x ``--seeds`` seeds,
with the system's batch of vectors per call. The systems span the shapes
the engine's flat batch-last gathers depend on: one stream, fewer streams
than receive antennas, square systems from 4 to 16 streams. They also
span the batch sizes whose BLAS paths the recomputing receiver's
per-instance products, such as its ``(1 x k)(k x n_r)`` nulling row,
depend on: one vector per call (the scalar receiver's), 100 (the
complexity bench's default) and 1,024 (the sweep engine's). Channels,
symbols and noise are drawn here with numpy, so both trees see the same
inputs whatever their own draw does. For each call it compares the
validity masks, and the detected point indices and detection orders
wherever both trees set the mask.

Usage, from the repository root:

    python3 tools/same_decisions.py OLD_SRC NEW_SRC [--seeds N]

Prints each call that differs, then on every exit a summary: the number
of differing entries of indices, orders and masks, the calls compared
(one per tree each) and the symbols compared (both loops counted). Exits
1 if anything differs, else 0. The default 16 seeds compare 7.0e7
symbols (25,088 calls) in about three and a half minutes on a 2-core
Xeon.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

# (n_r, n_t, modulation, vectors per call): the default sweep's system, also
# at the scalar receiver's and the bench's batch, tall ones, the small QPSK
# ones, one stream, and a large system at a small batch
SYSTEMS = (
    (8, 8, "qam16", 1024),
    (8, 8, "qam16", 100),
    (8, 8, "qam16", 1),
    (8, 6, "qam16", 1024),
    (5, 3, "qam16", 1024),
    (4, 4, "qpsk", 1024),
    (4, 2, "qpsk", 1024),
    (1, 1, "qpsk", 1024),
    (16, 16, "qam16", 64),
)
SNRS_DB = (4.0, 9.0, 14.0, 19.0, 24.0, 29.0, 34.0)
CORES = ("zf", "mmse")
LOOPS = ("vblast_indices_batch", "recompute_indices_batch")


def load(src: Path, name: str):
    """The ``osicsim`` package of the tree ``src``, imported as ``name``."""
    package = Path(src) / "osicsim"
    for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
        del sys.modules[key]  # a tree loaded earlier under this name
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("batched", "channel", "modem"):
        importlib.import_module(f"{name}.{sub}")  # bound on the package as it loads
    return module


def draw(key: tuple, batch: int, n_r: int, n_t: int, points: np.ndarray, noise_var: float):
    """``(H, y)`` for ``batch`` vectors from the numpy stream ``key``:
    unit-variance Rayleigh channels, uniform symbols and white noise of
    variance ``noise_var`` per entry."""
    rng = np.random.default_rng(key)
    cn = lambda shape, var: np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h = cn((batch, n_r, n_t), 1.0)
    x = points[rng.integers(0, len(points), (batch, n_t))]
    return h, np.einsum("bij,bj->bi", h, x) + cn((batch, n_r), noise_var)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="compare the detection decisions of two osicsim trees")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, default=16, help="batches per (system, SNR); default 16")
    args = parser.parse_args(argv)
    trees = [load(src, f"osicsim_{side}") for src, side in ((args.old_src, "old"), (args.new_src, "new"))]
    differ = {"indices": 0, "orders": 0, "ok": 0}
    calls = symbols = 0
    for n_r, n_t, mod, batch in SYSTEMS:
        consts = [t.modem.get_constellation(mod) for t in trees]
        for point, snr_db in enumerate(SNRS_DB):
            snrs = [t.channel.SnrSpec(snr_db) for t in trees]
            for seed in range(args.seeds):
                h, y = draw((seed, n_r, n_t, point), batch, n_r, n_t, consts[0].points, snrs[0].noise_var)
                for core, depth, loop in itertools.product(CORES, range(n_t), LOOPS):
                    (idx_a, ord_a, ok_a), (idx_b, ord_b, ok_b) = (
                        getattr(t.batched, loop)(h, y, core, depth, snr, c) for t, snr, c in zip(trees, snrs, consts)
                    )
                    both = ok_a & ok_b
                    found = {
                        "indices": int((idx_a[both] != idx_b[both]).sum()),
                        "orders": int((ord_a[both] != ord_b[both]).sum()),
                        "ok": int((ok_a != ok_b).sum()),
                    }
                    if any(found.values()):
                        print(f"{n_r}x{n_t} {mod} {core} {snr_db:g} dB depth {depth} seed {seed} {loop}: "
                              + ", ".join(f"{v} {k}" for k, v in found.items()))
                    for key, value in found.items():
                        differ[key] += value
                    calls += 1
                    symbols += batch * n_t
    verdict = "same decisions" if not any(differ.values()) else "decisions differ"
    print(f"{verdict}: {differ['indices']} indices, {differ['orders']} orders and {differ['ok']} ok differ; "
          f"compared {calls:,} calls, {symbols:,} symbols")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
