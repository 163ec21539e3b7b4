"""Command-line front end.

Subcommands wrap the Monte Carlo harness:

* ``ber-sweep``   one detector over an SNR list
* ``iter-sweep``  V-BLAST over every iteration count 0 .. n_t-1
* ``calibrate``   (SNR, n_i) BER grid plus derived required counts
* ``bench``       wall-clock complexity of the detector variants
* ``compare``     formula vs feedback vs ordinary V-BLAST, shared draws
* ``formula-eval`` print the formula policy's count for one SNR
* ``rerun``       re-execute a previous run from its manifest

Configuration precedence is CLI flag > config-file key > built-in default.
Config files are flat ``key = value`` text; unknown keys are hard errors.
Every data-producing run writes a JSON manifest recording the fully
resolved configuration, tool version and RNG scheme, plus the absolute
path and SHA-256 of any calibration table the run read; ``rerun`` replays
a manifest from any directory, refuses a calibration table whose hash has
changed, and reproduces every non-timing output byte. The
``OSIC_BENCH_WORKERS`` environment variable overrides the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .harness import (
    SweepConfig,
    bench_complexity,
    calibrate,
    compare_policies,
    format_bench_csv,
    format_bench_summary_csv,
    format_ber_csv,
    run_ber_sweep,
    run_linear_sweep,
)
from .policy import CalibrationTable, IterationPolicy, formula_iters

DEFAULTS = {
    "nt": 8,
    "nr": 8,
    "subcarriers": 64,
    "mod": "qam16",
    "core": "mmse",
    "detector": "vblast",
    "policy": "fixed",
    "iters": None,  # fixed-policy count; defaults to nt - 1 at execution
    "snr": "16:34:2",
    "seed": 1,
    "min_symbols": 10_000,
    "min_errors": 100,
    "workers": 1,
    "snr_est": "genie",
    "target_ber": 1e-2,
    "calib": None,
    "pilot_uses": 128,
    "bench_detections": 10_000,
}

_CASTS = {
    "nt": int,
    "nr": int,
    "subcarriers": int,
    "mod": str,
    "core": str,
    "detector": str,
    "policy": str,
    "iters": int,
    "snr": str,
    "seed": int,
    "min_symbols": int,
    "min_errors": int,
    "workers": int,
    "snr_est": str,
    "target_ber": float,
    "calib": str,
    "pilot_uses": int,
    "bench_detections": int,
}

_PLOT_PRESETS = {"iter-sweep": {4: "fig2", 8: "fig3", 16: "fig4"}, "calibrate": {8: "fig6a"}, "compare": {8: "fig7"}}


def _parse_snr_list(text: str) -> list[float]:
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"snr range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise click.UsageError(f"snr range bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise click.UsageError("snr range step must be positive")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 6))
            v += step
        return out
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse snr list {text!r}") from None


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}") from None
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise click.UsageError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            values[key] = _CASTS[key](value)
        except ValueError:
            raise click.UsageError(f"{path}:{ln}: bad value for {key!r}: {value!r}") from None
    return values


def _resolve(ctx: click.Context, file_cfg: dict) -> dict:
    """Merge flag > file > default into one plain dict."""
    resolved = {}
    for key, default in DEFAULTS.items():
        flag = ctx.params.get(key.replace("-", "_"))
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    env_workers = os.environ.get("OSIC_BENCH_WORKERS")
    if env_workers:
        try:
            resolved["workers"] = int(env_workers)
        except ValueError:
            raise click.UsageError(f"OSIC_BENCH_WORKERS must be an integer, got {env_workers!r}")
    return resolved


def _sweep_config(resolved: dict, iters_list=None, policy=None) -> SweepConfig:
    return SweepConfig(
        n_t=resolved["nt"],
        n_r=resolved["nr"],
        subcarriers=resolved["subcarriers"],
        modulation=resolved["mod"],
        core=resolved["core"],
        snr_db_list=tuple(_parse_snr_list(resolved["snr"])),
        iters_list=iters_list,
        policy=policy,
        min_symbols=resolved["min_symbols"],
        min_errors=resolved["min_errors"],
        seed=resolved["seed"],
        workers=resolved["workers"],
        snr_est=resolved["snr_est"],
        pilot_uses=resolved["pilot_uses"],
        target_ber=resolved["target_ber"],
        bench_detections=resolved["bench_detections"],
    ).validate()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_table(resolved: dict) -> tuple[CalibrationTable, dict]:
    """The ``--calib`` table and its manifest record (absolute path, SHA-256)."""
    if not resolved.get("calib"):
        raise click.UsageError("this command needs --calib FILE (a table written by 'calibrate')")
    path = Path(resolved["calib"]).resolve()
    record = {"path": str(path), "sha256": _sha256(path)}
    return CalibrationTable.load_csv(path), record


def _write_manifest(
    out_dir: Path, command: str, resolved: dict, outputs: list[str], calib: dict | None
) -> Path:
    manifest = {
        "tool": "osicsim",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "rng": {"bit_generator": "philox4x64", "gaussian": "box-muller", "key_scheme": "(seed, stream)"},
        "seed": resolved["seed"],
        "config": resolved,
        "outputs": outputs,
    }
    if calib is not None:
        manifest["calib"] = calib
    path = out_dir / f"{command.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_plot_file(out_dir: Path, command: str, resolved: dict, rows) -> str:
    """Long-format plot data: one (figure, series, snr_db, ber) row per point."""
    preset = _PLOT_PRESETS.get(command, {}).get(resolved["nt"], f"{command.replace('-', '_')}_custom")
    name = f"{command.replace('-', '_')}_plot.csv"
    lines = ["figure,series,snr_db,ber"]
    for series, snr_db, ber in rows:
        lines.append(f"{preset},{series},{snr_db:g},{ber:.12e}")
    (out_dir / name).write_text("\n".join(lines) + "\n")
    return name


def _plot_rows_from_points(points) -> list:
    return [
        (p.policy if p.policy != "fixed" else f"n_i={p.n_i}", p.snr_db, p.ber)
        for p in points
    ]


def _execute(command: str, resolved: dict, out_dir: Path, emit_plot: bool) -> list[str]:
    """Run one subcommand from a fully resolved config; returns output names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    plot_rows = None
    calib = None

    if command in ("ber-sweep", "iter-sweep"):
        detector = resolved["detector"]
        if command == "iter-sweep":
            cfg = _sweep_config(resolved, iters_list=tuple(range(0, resolved["nt"])))
            points = run_ber_sweep(cfg)
        elif detector in ("zf", "mmse"):
            cfg = _sweep_config(resolved)
            points = run_linear_sweep(cfg, detector)
        elif detector == "vblast":
            kind = resolved["policy"]
            if kind == "fixed":
                n = resolved["iters"] if resolved["iters"] is not None else resolved["nt"] - 1
                policy = IterationPolicy("fixed", fixed_n=n, target_ber=resolved["target_ber"])
            else:
                policy = IterationPolicy(kind, target_ber=resolved["target_ber"])
            table, calib = _load_table(resolved) if kind == "feedback" else (None, None)
            cfg = _sweep_config(resolved, policy=policy)
            points = run_ber_sweep(cfg, table)
        else:
            raise click.UsageError(f"unknown detector {detector!r}, expected zf, mmse or vblast")
        name = f"{command.replace('-', '_')}.csv"
        (out_dir / name).write_text(format_ber_csv(points, cfg, command))
        outputs.append(name)
        plot_rows = _plot_rows_from_points(points)

    elif command == "calibrate":
        cfg = _sweep_config(resolved)
        table, derived = calibrate(cfg, resolved["target_ber"])
        table.save_csv(out_dir / "calibrate.csv")
        outputs.append("calibrate.csv")
        lines = [f"# target_ber={resolved['target_ber']:g}", "snr_db,required_n_i"]
        lines += [f"{snr:g},{n}" for snr, n in derived]
        (out_dir / "calibrate_derived.csv").write_text("\n".join(lines) + "\n")
        outputs.append("calibrate_derived.csv")
        plot_rows = [
            (f"n_i={n}", s, b) for s, n, b in zip(table.snr_db, table.n_i, table.ber)
        ]

    elif command == "compare":
        table, calib = _load_table(resolved)
        cfg = _sweep_config(resolved)
        points = compare_policies(cfg, table)
        (out_dir / "compare.csv").write_text(format_ber_csv(points, cfg, command))
        outputs.append("compare.csv")
        plot_rows = _plot_rows_from_points(points)

    elif command == "bench":
        table, calib = _load_table(resolved)
        cfg = _sweep_config(resolved)
        report = bench_complexity(cfg, table)
        (out_dir / "bench.csv").write_text(format_bench_csv(report, cfg))
        (out_dir / "bench_summary.csv").write_text(format_bench_summary_csv(report))
        outputs += ["bench.csv", "bench_summary.csv"]
        for name, mean_ns, ratio in report.summary:
            click.echo(f"{name:12s} {mean_ns:12.0f} ns/detection  {ratio:6.1f}%")

    else:
        raise click.UsageError(f"unknown command {command!r}")

    if emit_plot and plot_rows is not None:
        outputs.append(_write_plot_file(out_dir, command, resolved, plot_rows))
    manifest = _write_manifest(out_dir, command, resolved, outputs, calib)
    click.echo(f"wrote {', '.join(outputs)} and {manifest.name} to {out_dir}")
    return outputs


def _common_options(f):
    options = [
        click.option("--config", type=click.Path(), default=None, help="Flat key = value config file."),
        click.option("--out", type=click.Path(), default=".", show_default=True, help="Output directory."),
        click.option("--seed", type=int, default=None, help=f"RNG seed [default: {DEFAULTS['seed']}]."),
        click.option("--nt", type=int, default=None, help=f"Transmit antennas [default: {DEFAULTS['nt']}]."),
        click.option("--nr", type=int, default=None, help=f"Receive antennas [default: {DEFAULTS['nr']}]."),
        click.option("--subcarriers", type=int, default=None, help=f"Independent subcarriers K [default: {DEFAULTS['subcarriers']}]."),
        click.option("--mod", type=click.Choice(["qpsk", "qam16"]), default=None, help=f"Modulation [default: {DEFAULTS['mod']}]."),
        click.option("--core", type=click.Choice(["zf", "mmse"]), default=None, help=f"Nulling core [default: {DEFAULTS['core']}]."),
        click.option("--snr", default=None, help=f"SNR list: '16,20,24' or start:stop:step [default: {DEFAULTS['snr']}]."),
        click.option("--min-symbols", "min_symbols", type=int, default=None, help="Minimum symbols per point."),
        click.option("--min-errors", "min_errors", type=int, default=None, help="Minimum bit errors per point."),
        click.option("--workers", type=int, default=None, help="Monte Carlo worker processes."),
        click.option("--snr-est", "snr_est", type=click.Choice(["genie", "pilot"]), default=None, help="SNR knowledge at the receiver."),
        click.option("--pilot-uses", "pilot_uses", type=int, default=None, help="Pilot channel uses per estimate."),
        click.option("--target-ber", "target_ber", type=float, default=None, help="Target BER for policies/calibration."),
        click.option("--emit-plot", is_flag=True, default=False, help="Also write a long-format plot data file."),
    ]
    for opt in reversed(options):
        f = opt(f)
    return f


@click.group()
@click.version_option(version=__version__, prog_name="osicsim")
def main():
    """Link-level Monte Carlo simulator for truncated V-BLAST detection."""


@main.command("ber-sweep")
@_common_options
@click.option("--detector", type=click.Choice(["zf", "mmse", "vblast"]), default=None,
              help=f"Detector family [default: {DEFAULTS['detector']}].")
@click.option("--policy", type=click.Choice(["fixed", "formula", "feedback"]), default=None,
              help=f"Iteration policy for vblast [default: {DEFAULTS['policy']}].")
@click.option("--iters", type=int, default=None, help="Iteration count for the fixed policy [default: nt-1].")
@click.option("--calib", type=click.Path(), default=None, help="Calibration table CSV (feedback policy).")
@click.pass_context
def ber_sweep(ctx, **_kw):
    """BER vs SNR for one detector configuration."""
    _run_guarded("ber-sweep", ctx)


@main.command("iter-sweep")
@_common_options
@click.pass_context
def iter_sweep(ctx, **_kw):
    """BER vs SNR for every V-BLAST iteration count 0 .. nt-1."""
    _run_guarded("iter-sweep", ctx)


@main.command("calibrate")
@_common_options
@click.pass_context
def calibrate_cmd(ctx, **_kw):
    """Measure the (SNR, N_i) BER grid and derive required iteration counts."""
    _run_guarded("calibrate", ctx)


@main.command("compare")
@_common_options
@click.option("--calib", type=click.Path(), default=None, help="Calibration table CSV (required).")
@click.pass_context
def compare_cmd(ctx, **_kw):
    """Formula vs feedback vs ordinary V-BLAST on shared draws."""
    _run_guarded("compare", ctx)


@main.command("bench")
@_common_options
@click.option("--calib", type=click.Path(), default=None, help="Calibration table CSV (required).")
@click.option("--bench-detections", "bench_detections", type=int, default=None,
              help=f"Timed detections per variant per SNR [default: {DEFAULTS['bench_detections']}].")
@click.pass_context
def bench_cmd(ctx, **_kw):
    """Average per-detection execution time of each detector variant."""
    _run_guarded("bench", ctx)


@main.command("formula-eval")
@click.option("--snr", required=True, type=float, help="Operating SNR in dB.")
@click.option("--nt", type=int, default=DEFAULTS["nt"], show_default=True, help="Transmit antennas.")
def formula_eval(snr, nt):
    """Print the formula policy's iteration count for one SNR."""
    try:
        click.echo(formula_iters(snr, nt))
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None


@main.command("rerun")
@click.argument("manifest", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Output directory [default: manifest's directory].")
def rerun(manifest, out):
    """Re-execute a previous run from its manifest file."""
    try:
        data = json.loads(Path(manifest).read_text())
        command = data["command"]
        resolved = data["config"]
        calib = data.get("calib")
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot load manifest: {exc}") from None
    if calib is not None:
        try:
            path, recorded = Path(calib["path"]), calib["sha256"]
            actual = _sha256(path)
        except (OSError, KeyError, TypeError) as exc:
            raise click.ClickException(f"cannot check calibration table: {exc}") from None
        if actual != recorded:
            raise click.ClickException(
                f"calibration table {path} has SHA-256 {actual}, but the manifest recorded {recorded}"
            )
        resolved["calib"] = str(path)
    out_dir = Path(out) if out else Path(manifest).parent
    emit_plot = bool(resolved.get("emit_plot", False))
    try:
        _execute(command, resolved, out_dir, emit_plot)
    except Exception as exc:
        raise click.ClickException(str(exc)) from None


def _run_guarded(command: str, ctx: click.Context) -> None:
    """Resolve a subcommand's configuration and run it; any failure exits with a one-line error."""
    config = ctx.params["config"]
    resolved = _resolve(ctx, _parse_config_file(config) if config else {})
    resolved["emit_plot"] = bool(ctx.params.get("emit_plot"))
    out_dir = Path(ctx.params.get("out") or ".")
    try:
        _execute(command, resolved, out_dir, resolved["emit_plot"])
    except click.ClickException:
        raise
    except Exception as exc:
        raise click.ClickException(str(exc)) from None


if __name__ == "__main__":
    main()
