"""Command-line front end.

Subcommands wrap the Monte Carlo harness:

* ``ber-sweep``   one detector over an SNR list
* ``iter-sweep``  V-BLAST over every iteration count 0 .. n_t-1
* ``calibrate``   (SNR, n_i) BER grid plus derived required counts
* ``bench``       wall-clock complexity of the detector variants
* ``compare``     formula vs feedback vs ordinary V-BLAST, shared draws
* ``formula-eval`` print the formula policy's count for one SNR
* ``rerun``       re-execute a previous run from its manifest

Every config key is one row of ``OPTIONS`` (the ``SweepConfig`` field it
sets, type, help), and the five Monte Carlo commands are the rows of
``COMMANDS``. A key's default is its field's ``SweepConfig`` default;
only the keys without a field (``snr``, given as text, and the
``ber-sweep`` keys ``detector``, ``policy``, ``iters`` and ``calib``)
declare their own. The flags are generated from ``OPTIONS``;
config-file values and a manifest's config are checked against the same
types and choices by ``_coerce``, so an unknown key, a value of the wrong
type or one outside its choices is refused wherever it comes from. A config file may set only the keys its command
reads: the common keys plus the command's ``COMMANDS[...].extra``.
Configuration precedence is CLI flag > config-file key > built-in
default. Config files are flat ``key = value`` text.
Every data-producing run writes a JSON manifest recording the fully
resolved configuration, tool, python and numpy versions, the machine and
the RNG scheme, plus the absolute path and SHA-256 of any calibration
table the run read; ``rerun`` replays a manifest from any directory,
refuses a manifest whose RNG scheme is not this build's, a calibration
table whose hash has changed or a key the command does not read set away
from its default, and reproduces every non-timing output byte for the
same numpy build.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .channel import RNG_SCHEME
from .detectors import NULLING_CORES
from .harness import (
    POLICIES,
    SNR_ESTIMATORS,
    SweepConfig,
    _machine_note,
    bench_complexity,
    calibrate,
    compare_policies,
    format_bench_csv,
    format_bench_summary_csv,
    format_ber_csv,
    run_ber_sweep,
    run_linear_sweep,
)
from .modem import CONSTELLATIONS
from .policy import CalibrationTable, formula_iters


class Option(NamedTuple):
    """One config key: the ``SweepConfig`` field it sets (``None`` if it sets
    none), its type (a cast, or a tuple of the allowed strings), its help,
    and for a key without a field its default."""

    field: str | None
    type: type | tuple[str, ...]
    help: str
    default: object = None


OPTIONS = {
    "seed": Option("seed", int, "RNG seed."),
    "nt": Option("n_t", int, "Transmit antennas."),
    "nr": Option("n_r", int, "Receive antennas."),
    "subcarriers": Option("subcarriers", int, "Independent subcarriers K."),
    "mod": Option("modulation", tuple(CONSTELLATIONS), "Modulation."),
    "core": Option("core", NULLING_CORES, "Nulling core."),
    "snr": Option(None, str, "SNR list: '16,20,24' or start:stop:step.", "16:34:2"),
    "min_symbols": Option("min_symbols", int, "Minimum symbols per point."),
    "min_errors": Option("min_errors", int, "Minimum bit errors per point."),
    "workers": Option("workers", int, "Monte Carlo worker processes."),
    "snr_est": Option("snr_est", SNR_ESTIMATORS, "SNR knowledge at the receiver."),
    "pilot_uses": Option("pilot_uses", int, "Pilot channel uses per estimate."),
    "target_ber": Option("target_ber", float, "Target BER for policies/calibration."),
    "detector": Option(None, (*NULLING_CORES, "vblast"), "Detector family.", "vblast"),
    "policy": Option(None, ("fixed", *POLICIES), "Iteration policy for vblast.", "fixed"),
    "iters": Option(None, int, "Iteration count for the fixed policy [default: nt-1]."),
    "calib": Option(None, str, "Calibration table CSV written by 'calibrate' (compare, bench, feedback policy)."),
    "bench_detections": Option("bench_detections", int, "Timed detections per variant per SNR."),
}
DEFAULTS = {key: getattr(SweepConfig, o.field) if o.field else o.default for key, o in OPTIONS.items()}

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


def _coerce(key: str, value, where: str):
    """``value`` for config key ``key`` read from ``where``, checked against its ``OPTIONS`` row.

    Text (a config-file value) is parsed with the row's cast; any other
    value (from a manifest) must already have the row's type, except that
    an integer is accepted for a float. ``None`` is accepted only for a
    key whose default is ``None``.
    """
    if key not in OPTIONS:
        raise click.UsageError(f"{where}: unknown config key {key!r}")
    option = OPTIONS[key]
    if value is None and DEFAULTS[key] is None:
        return None
    if isinstance(option.type, tuple):
        if isinstance(value, str) and value in option.type:
            return value
        expected = "one of " + ", ".join(option.type)
    else:
        if isinstance(value, str):
            try:
                return option.type(value)
            except ValueError:
                pass
        elif type(value) is option.type or (option.type is float and type(value) is int):
            return option.type(value)
        expected = {int: "an integer", float: "a number", str: "a string"}[option.type]
    raise click.UsageError(f"{where}: bad value for {key!r}: {value!r} (expected {expected})")


def _reads(command: str) -> set[str]:
    """The config keys ``command`` reads: the common keys and its own."""
    return {*_COMMON_KEYS, *COMMANDS[command].extra}


def _parse_config_file(path: str, command: str) -> dict:
    """The ``key = value`` lines of ``path``, each key one that ``command`` reads."""
    reads = _reads(command)
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
        if key in OPTIONS and key not in reads:
            raise click.UsageError(f"{path}:{ln}: {command} does not read config key {key!r}")
        values[key] = _coerce(key, value, f"{path}:{ln}")
    return values


def _manifest_config(config, where: str, command: str) -> dict:
    """A manifest's resolved config, with every ``OPTIONS`` key present and checked.

    A key that ``command`` does not read must hold its default: a manifest
    edited to set one would otherwise replay as if the value had been used.
    """
    if not isinstance(config, dict):
        raise click.UsageError(f"{where}: config must be a JSON object")
    missing = [key for key in OPTIONS if key not in config]
    if missing:
        raise click.UsageError(f"{where}: config lacks key(s) {', '.join(map(repr, missing))}")
    emit_plot = config.get("emit_plot", False)
    if not isinstance(emit_plot, bool):
        raise click.UsageError(f"{where}: bad value for 'emit_plot': {emit_plot!r} (expected true or false)")
    resolved = {key: _coerce(key, value, where) for key, value in config.items() if key != "emit_plot"}
    resolved["emit_plot"] = emit_plot
    for key in OPTIONS:
        if key not in _reads(command) and resolved[key] != DEFAULTS[key]:
            raise click.UsageError(
                f"{where}: {command} does not read config key {key!r}, but the manifest sets it to {resolved[key]!r}"
            )
    return resolved


def _resolve(params: dict, file_cfg: dict) -> dict:
    """Merge flag > file > default into one plain dict."""
    resolved = {}
    for key, default in DEFAULTS.items():
        flag = params.get(key)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _sweep_config(resolved: dict) -> SweepConfig:
    fields = {o.field: resolved[key] for key, o in OPTIONS.items() if o.field}
    return SweepConfig(snr_db_list=tuple(_parse_snr_list(resolved["snr"])), **fields).validate()


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
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": _machine_note(),
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "rng": RNG_SCHEME,
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


# A command's runner returns (output files as {name: text}, plot rows or
# None, the calibration-table record or None).
Result = tuple[dict[str, str], list | None, dict | None]


def _warn_capped(cfg: SweepConfig, points) -> None:
    """One stderr line per point that stopped at the symbol budget short of ``min_errors``."""
    for p in points:
        if p.capped:
            click.echo(
                f"warning: {p.policy} n_i={p.n_i} at {p.snr_db:g} dB stopped at the symbol budget "
                f"with {p.bit_errors} bit errors, short of min_errors={cfg.min_errors}",
                err=True,
            )


def _ber_result(command: str, cfg: SweepConfig, points, calib: dict | None = None) -> Result:
    _warn_capped(cfg, points)
    files = {f"{command.replace('-', '_')}.csv": format_ber_csv(points, cfg, command)}
    plot_rows = [(p.policy if p.policy != "fixed" else f"n_i={p.n_i}", p.snr_db, p.ber) for p in points]
    return files, plot_rows, calib


def _ber_sweep(resolved: dict) -> Result:
    detector, policy, iters = resolved["detector"], resolved["policy"], resolved["iters"]
    if detector != "vblast":
        for flag in ("policy", "iters"):
            if resolved[flag] != DEFAULTS[flag]:
                raise click.UsageError(
                    f"--{flag} sets the depth of --detector vblast; it cannot go with --detector {detector}"
                )
        # a linear run nulls with the detector itself, so its CSV header names that core
        cfg = _sweep_config({**resolved, "core": detector})
        return _ber_result("ber-sweep", cfg, run_linear_sweep(cfg, detector))
    if policy != "fixed" and iters is not None:
        raise click.UsageError(f"--iters sets the count of --policy fixed; it cannot go with --policy {policy}")
    # the fixed policy runs --iters, or nt - 1 by default; another policy is a depth name
    depth = iters if policy == "fixed" else policy
    table, calib = _load_table(resolved) if policy == "feedback" else (None, None)
    cfg = _sweep_config(resolved)
    points = run_ber_sweep(cfg, None if depth is None else (depth,), table=table)
    return _ber_result("ber-sweep", cfg, points, calib)


def _iter_sweep(resolved: dict) -> Result:
    cfg = _sweep_config(resolved)
    return _ber_result("iter-sweep", cfg, run_ber_sweep(cfg, range(cfg.n_t)))


def _calibrate(resolved: dict) -> Result:
    cfg = _sweep_config(resolved)
    table, derived, points = calibrate(cfg)
    _warn_capped(cfg, points)
    lines = [f"# target_ber={resolved['target_ber']:g}", "snr_db,required_n_i"]
    lines += [f"{snr:g},{n}" for snr, n in derived]
    files = {"calibrate.csv": table.to_csv(), "calibrate_derived.csv": "\n".join(lines) + "\n"}
    return files, [(f"n_i={n}", s, b) for s, n, b in zip(table.snr_db, table.n_i, table.ber)], None


def _compare(resolved: dict) -> Result:
    table, calib = _load_table(resolved)
    cfg = _sweep_config(resolved)
    return _ber_result("compare", cfg, compare_policies(cfg, table), calib)


def _bench(resolved: dict) -> Result:
    table, calib = _load_table(resolved)
    cfg = _sweep_config(resolved)
    report = bench_complexity(cfg, table)
    for name, mean_ns, ratio in report.summary:
        click.echo(f"{name:12s} {mean_ns:12.0f} ns/detection  {ratio:6.1f}%")
    files = {"bench.csv": format_bench_csv(report, cfg), "bench_summary.csv": format_bench_summary_csv(report)}
    return files, None, calib


class Command(NamedTuple):
    """One Monte Carlo command: its runner, its keys beyond the common ones, and its help."""

    run: Callable[[dict], Result]
    extra: tuple[str, ...]
    help: str


COMMANDS = {
    "ber-sweep": Command(
        _ber_sweep, ("detector", "policy", "iters", "calib"), "BER vs SNR for one detector configuration."
    ),
    "iter-sweep": Command(_iter_sweep, (), "BER vs SNR for every V-BLAST iteration count 0 .. nt-1."),
    "calibrate": Command(_calibrate, (), "Measure the (SNR, N_i) BER grid and derive required iteration counts."),
    "compare": Command(_compare, ("calib",), "Formula vs feedback vs ordinary V-BLAST on shared draws."),
    "bench": Command(
        _bench, ("calib", "bench_detections"), "Average per-detection execution time of each detector variant."
    ),
}
_COMMON_KEYS = [key for key in OPTIONS if not any(key in c.extra for c in COMMANDS.values())]


def _execute(command: str, resolved: dict, out_dir: Path) -> None:
    """Run one command from a fully resolved config and write its outputs and manifest.

    Any failure exits with a one-line error.
    """
    try:
        files, plot_rows, calib = COMMANDS[command].run(resolved)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text)
        outputs = list(files)
        if resolved["emit_plot"] and plot_rows is not None:
            outputs.append(_write_plot_file(out_dir, command, resolved, plot_rows))
        manifest = _write_manifest(out_dir, command, resolved, outputs, calib)
    except click.ClickException:
        raise
    except Exception as exc:
        raise click.ClickException(str(exc)) from None
    click.echo(f"wrote {', '.join(outputs)} and {manifest.name} to {out_dir}")


@click.group()
@click.version_option(version=__version__, prog_name="osicsim")
def main():
    """Link-level Monte Carlo simulator for truncated V-BLAST detection."""


def _flag(key: str):
    option, default = OPTIONS[key], DEFAULTS[key]
    kind = click.Choice(option.type) if isinstance(option.type, tuple) else option.type
    shown = "" if default is None else f" [default: {default}]"
    return click.option(f"--{key.replace('_', '-')}", key, type=kind, default=None, help=option.help + shown)


def _register(name: str, command: Command) -> None:
    """Add ``name`` to ``main`` with the common flags and the command's extra ones."""

    @click.pass_context
    def run(ctx: click.Context, **_flags) -> None:
        params = ctx.params
        resolved = _resolve(params, _parse_config_file(params["config"], name) if params["config"] else {})
        resolved["emit_plot"] = params["emit_plot"]
        _execute(name, resolved, Path(params["out"]))

    options = [
        click.option("--config", type=click.Path(), default=None, help="Flat key = value config file."),
        click.option("--out", type=click.Path(), default=".", show_default=True, help="Output directory."),
        *map(_flag, _COMMON_KEYS),
        click.option("--emit-plot", is_flag=True, default=False, help="Also write a long-format plot data file."),
        *map(_flag, command.extra),
    ]
    for option in reversed(options):
        run = option(run)
    main.command(name, help=command.help)(run)


for _name, _command in COMMANDS.items():
    _register(_name, _command)


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
        command, config = data["command"], data["config"]
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot load manifest: {exc}") from None
    if command not in COMMANDS:
        raise click.ClickException(f"{manifest}: unknown command {command!r}")
    if data.get("rng") != RNG_SCHEME:
        raise click.ClickException(
            f"{manifest}: RNG scheme {data.get('rng')!r} is not this build's {RNG_SCHEME!r}, "
            "so its draws cannot be replayed"
        )
    resolved = _manifest_config(config, manifest, command)
    calib = data.get("calib")
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
    _execute(command, resolved, Path(out) if out else Path(manifest).parent)


if __name__ == "__main__":
    main()
