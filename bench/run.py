"""osicsim benchmark: three closed-loop workloads through ``osicsim.harness``.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-8x8-qam16 --seed 1 --seconds 30 --trace 0

Workloads: ``sweep-8x8-qam16``, ``linear-4x4-qpsk``, ``bench-8x8-qam16``
(see ``workloads.py`` and ``NOTES.md``). The seed sets every random draw
of the workload. With ``--trace 0`` the run repeats (workers=1, workers=2)
pairs of the workload's harness call until ``--seconds`` are used and
reports the end-to-end metrics as medians over the pairs. With
``--trace 1`` it runs workers=1 untraced, workers=1 traced and workers=2
untraced once each, and reports per-layer metrics; the spans go to a
gzipped trace file under ``bench/out/``.

Every result is checked against ``reference.json`` (see ``check.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance, is also written under ``bench/out/``.
"""

import time

_T_START = time.perf_counter()  # set-up time counts from interpreter start-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 4  # fresh-process set-ups per run, besides the run's own
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "vectors_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_DRAWS = ("channel.gen_channel_batch", "channel.gen_noise_batch", "channel.random_bits")
_HARNESS_CHILDREN = _DRAWS + ("modem.bits_to_indices", "batched.transmit_batch", "batched.vblast_indices_batch",
                              "batched.count_bit_errors", "detectors.vblast_detect", "policy.feedback_detect")

# informational values printed besides the metrics (self_s.<layer> are in s)
INFO_UNITS = {"wall_s": "s", "wall_s_traced": "s", "wall_s_w2": "s", "speedup_w2": "ratio",
              "vectors_per_s_w2": "1/s"}

# name -> (unit, span names the value is computed from)
PER_LAYER = {
    "channel.draw_s": ("s", _DRAWS),
    "channel.ns_per_vector": ("ns", _DRAWS),
    "channel.vectors_drawn": ("count", ("channel.gen_channel_batch",)),
    "channel.redraws": ("count", ("channel.gen_channel_batch",)),
    "modem.map_s": ("s", ("modem.bits_to_indices",)),
    "batched.detect_s": ("s", ("batched.vblast_indices_batch",)),
    "batched.nulling_s": ("s", ("batched.nulling_batch",)),
    "batched.gram_s": ("s", ("batched.nulling_batch", "batched.inverse_batch")),
    "batched.inverse_s": ("s", ("batched.inverse_batch",)),
    "batched.inverse_calls": ("count", ("batched.inverse_batch",)),
    "batched.inversions_per_vector": ("ratio", ("batched.inverse_batch", "batched.vblast_indices_batch")),
    "batched.inverse_gflops": ("GFLOP/s", ("batched.inverse_batch",)),
    "batched.slice_s": ("s", ("batched.slice_indices",)),
    "batched.cancel_s": ("s", ("batched.vblast_indices_batch", "batched.nulling_batch", "batched.slice_indices")),
    "batched.count_s": ("s", ("batched.count_bit_errors",)),
    "batched.transmit_s": ("s", ("batched.transmit_batch",)),
    "linalg.inverse_s": ("s", ("linalg.inverse",)),
    "linalg.inverse_calls": ("count", ("linalg.inverse",)),
    "detectors.vblast_s": ("s", ("detectors.vblast_detect",)),
    "detectors.vblast_calls": ("count", ("detectors.vblast_detect",)),
    "detectors.nulling_s": ("s", ("detectors.nulling_matrix",)),
    "detectors.self_s": ("s", ("detectors.vblast_detect", "detectors.nulling_matrix")),
    "policy.feedback_s": ("s", ("policy.feedback_detect",)),
    "policy.feedback_passes": ("count", ("policy.feedback_detect", "detectors.vblast_detect")),
    "policy.feedback_useful_ratio": ("ratio", ("policy.feedback_detect", "detectors.vblast_detect")),
    "policy.lookup_calls": ("count", ("policy.meets_target",)),
    "policy.lookup_s": ("s", ("policy.meets_target",)),
    "policy.table_load_s": ("s", ()),
    "harness.cells": ("count", ()),
    "harness.vectors": ("count", ()),
    "harness.max_cell_vector_share": ("ratio", ()),
    "harness.self_s": ("s", _HARNESS_CHILDREN),
    "harness.pool_efficiency": ("ratio", ()),
    "trace.overhead_pct": ("%", ()),
}

# real flops of one n x n complex Gauss-Jordan inversion as batched.inverse_batch
# runs it: n pivot steps, each an n x 2n complex multiply-subtract (8 flops)
GJ_FLOPS_PER_CUBE = 16


def parse_args(argv):
    p = argparse.ArgumentParser(description="osicsim benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time as JSON and exit")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path and import the benchmark modules.

    Refuses to run against any ``osicsim`` other than the checkout's own.
    """
    if not (SRC / "osicsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no osicsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # pool workers started by spawn import the package from the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import osicsim

    if not Path(osicsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported osicsim from {osicsim.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# measuring


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured by the interpreter itself."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Call:
    """One timed harness call: worker count, wall seconds, checked rows."""

    workers: int
    wall_s: float | None
    rows: list[dict] | None  # None when the call raised


def run_once(workloads, ctx, workers: int, tracer=None) -> Call:
    """One closed-loop call of the workload's harness entry point."""
    cfg = replace(ctx.cfg, workers=workers)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.call(ctx, cfg)
        else:
            with tracer.span(f"harness.{ctx.entry}"):
                result = workloads.call(ctx, cfg)
    except Exception:
        traceback.print_exc()
        return Call(workers, None, None)
    wall = time.perf_counter() - t0
    return Call(workers, wall, workloads.rows_of(ctx, result))


def measure_reps(workloads, ctx, seconds: float) -> list[list[Call]]:
    """Repetitions (one call per worker count), until another would overrun."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append([run_once(workloads, ctx, workers) for workers in ctx.workers])
        elapsed = time.perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def evaluate(reps: list[list[Call]], expected: int, reference: dict) -> tuple[int, list[str]]:
    """(attempted, failure reasons) over repetitions of one seed."""
    baseline = next((c.rows for rep in reps for c in rep if c.rows is not None), None)
    attempted, failures = 0, []
    for rep in reps:
        attempted += expected * len(rep)
        failures += check.check_rep([c.rows for c in rep], expected, reference, baseline)
    return attempted, failures


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool worker or probe)."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end_metrics(reps: list[list[Call]], setup_samples: list[float]) -> tuple[dict, dict]:
    """(gated metrics, informational values): medians over repetitions."""
    calls = [c for rep in reps for c in rep if c.rows is not None]
    by_workers = lambda w: [c for c in calls if c.workers == w]
    vectors = lambda c: sum(r["vectors"] for r in c.rows)
    median = lambda values: statistics.median(values) if values else None
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "vectors_per_s": median([vectors(c) / c.wall_s for c in by_workers(1)]),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"repetitions": len(reps), "setup_samples_s": setup_samples,
            "wall_s": median([c.wall_s for c in by_workers(1)])}
    if by_workers(2):
        info["wall_s_w2"] = median([c.wall_s for c in by_workers(2)])
        info["vectors_per_s_w2"] = median([vectors(c) / c.wall_s for c in by_workers(2)])
        info["speedup_w2"] = median([one.wall_s / two.wall_s for one, two in
                                     (rep for rep in reps if len(rep) == 2)
                                     if one.rows is not None and two.rows is not None])
    return metrics, info


def per_layer_metrics(tracer, ctx, rows, wall_untraced, wall_traced, wall_w2) -> dict:
    """Per-layer metrics of one traced workers=1 run; null where a layer is missing."""
    s = tracer.summary()
    get = lambda name, key: s.get(name, {}).get(key, 0)
    total = lambda *names: sum(get(n, "total_ns") for n in names) / 1e9
    vectors = sum(r["vectors"] for r in rows)
    drawn = get("channel.gen_channel_batch", "size")
    draw_s = total(*_DRAWS)
    detect_vectors = get("batched.vblast_indices_batch", "size")
    inverse_s = total("batched.inverse_batch")
    passes = tracer.calls_under("detectors.vblast_detect", "policy.feedback_detect")
    entry = f"harness.{ctx.entry}"
    values = {
        "channel.draw_s": draw_s,
        "channel.ns_per_vector": draw_s * 1e9 / drawn if drawn else 0.0,
        "channel.vectors_drawn": drawn,
        "channel.redraws": drawn - sum(r["drawn"] for r in rows),
        "modem.map_s": total("modem.bits_to_indices"),
        "batched.detect_s": total("batched.vblast_indices_batch"),
        "batched.nulling_s": total("batched.nulling_batch"),
        "batched.gram_s": total("batched.nulling_batch") - inverse_s,
        "batched.inverse_s": inverse_s,
        "batched.inverse_calls": get("batched.inverse_batch", "calls"),
        "batched.inversions_per_vector": get("batched.inverse_batch", "size") / detect_vectors if detect_vectors else 0.0,
        "batched.inverse_gflops": (GJ_FLOPS_PER_CUBE * get("batched.inverse_batch", "cubes") / inverse_s / 1e9
                                   if inverse_s else 0.0),
        "batched.slice_s": total("batched.slice_indices"),
        "batched.cancel_s": get("batched.vblast_indices_batch", "self_ns") / 1e9,
        "batched.count_s": total("batched.count_bit_errors"),
        "batched.transmit_s": total("batched.transmit_batch"),
        "linalg.inverse_s": total("linalg.inverse"),
        "linalg.inverse_calls": get("linalg.inverse", "calls"),
        "detectors.vblast_s": total("detectors.vblast_detect"),
        "detectors.vblast_calls": get("detectors.vblast_detect", "calls"),
        "detectors.nulling_s": total("detectors.nulling_matrix"),
        "detectors.self_s": get("detectors.vblast_detect", "self_ns") / 1e9,
        "policy.feedback_s": total("policy.feedback_detect"),
        "policy.feedback_passes": passes,
        "policy.feedback_useful_ratio": get("policy.feedback_detect", "calls") / passes if passes else 0.0,
        "policy.lookup_calls": get("policy.meets_target", "calls"),
        "policy.lookup_s": total("policy.meets_target"),
        "policy.table_load_s": total("policy.load_csv"),
        "harness.cells": len(rows),
        "harness.vectors": vectors,
        "harness.max_cell_vector_share": max(r["vectors"] for r in rows) / vectors if vectors else 0.0,
        "harness.self_s": get(entry, "self_ns") / 1e9,
        "harness.pool_efficiency": wall_untraced / wall_w2 / 2.0,
        "trace.overhead_pct": 100.0 * (wall_traced - wall_untraced) / wall_untraced,
    }
    missing = tracer.missing_spans()
    return {name: (None if missing.intersection(PER_LAYER[name][1]) else values[name]) for name in PER_LAYER}


# ---------------------------------------------------------------------------
# reporting


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "osicsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, ctx) -> dict:
    import numpy

    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {k: os.environ.get(k) for k in blas_vars},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": asdict(ctx.cfg),
    }


def emit(args, ctx, metrics: dict, units: dict, info: dict, attempted: int, failures: list[str],
         extra: dict | None = None) -> None:
    """Write the result file and print the human summary and the JSON result line."""
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    prov = provenance(args, ctx)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"provenance": prov, "info": info, "failures": failures,
                                    **(extra or {}), "result": result}, indent=1, default=str) + "\n")
    for reason in failures[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, one caller; workers=1 then workers=2 per pair)")
    for name, unit in units.items():
        value = metrics[name]
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:32s} {shown}")
    for name, value in info.items():
        if name in INFO_UNITS or name.startswith("self_s."):
            print(f"  {name:32s} {value:.6g} {INFO_UNITS.get(name, 's')}")
    print(f"  {'failed_frac':32s} {len(failures) / attempted if attempted else 1.0:.6g} "
          f"({len(failures)} of {attempted} operations)")
    print(f"  result file {out_path.relative_to(ROOT)}")
    print("provenance " + json.dumps(prov, default=str))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ctx = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = check.load_reference(args.workload)
    expected = ctx.expected_ops()

    if args.trace == 0:
        setup_samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        reps = measure_reps(workloads, ctx, args.seconds)
        attempted, failures = evaluate(reps, expected, reference)
        metrics, info = end_to_end_metrics(reps, setup_samples)
        emit(args, ctx, metrics, END_TO_END, info, attempted, failures)
        return 0

    tracer = Tracer(args.workload)
    if ctx.table_load_ns is not None:
        tracer.record("policy.load_csv", *ctx.table_load_ns)
    # the traced call sits between two untraced ones, so drift in machine
    # speed over the run cancels out of the tracing overhead
    before = run_once(workloads, ctx, 1)
    with tracer.installed():
        traced = run_once(workloads, ctx, 1, tracer)
    after = run_once(workloads, ctx, 1)
    pooled = run_once(workloads, ctx, 2)
    calls = [before, traced, after, pooled]
    attempted = expected * len(calls)
    failures = check.check_rep([c.rows for c in calls], expected, reference, before.rows)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    if any(c.rows is None for c in calls):
        emit(args, ctx, dict.fromkeys(units), units, {}, attempted, failures)
        return 0
    wall_1 = (before.wall_s + after.wall_s) / 2.0
    metrics = per_layer_metrics(tracer, ctx, traced.rows, wall_1, traced.wall_s, pooled.wall_s)
    layer_self = tracer.layer_self_s(tracer.summary())
    info = {"wall_s": wall_1, "wall_s_traced": traced.wall_s, "wall_s_w2": pooled.wall_s,
            **{f"self_s.{layer}": v for layer, v in layer_self.items()}}
    trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.jsonl.gz"
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "missing": tracer.missing,
                              "layer_self_s": layer_self, "spans": len(tracer.spans)})
    emit(args, ctx, metrics, units, info, attempted, failures,
         {"missing_layers": tracer.missing, "trace_file": str(trace_path.relative_to(ROOT))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
