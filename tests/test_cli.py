"""Tests for the command-line front end: precedence, manifests, reruns."""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from osicsim import cli
from osicsim.cli import DEFAULTS, OPTIONS, _sweep_config, main
from osicsim.harness import SweepConfig

# fast sweeps for CLI plumbing tests: 4x4 QPSK at one moderate SNR
FAST = [
    "--nt", "4", "--nr", "4", "--mod", "qpsk", "--snr", "8", "--subcarriers", "8",
]


def run_cli(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def non_timing_lines(path: Path) -> list[str]:
    """CSV lines with the trailing (timing) column stripped from data rows."""
    out = []
    for line in path.read_text().strip().split("\n"):
        if line.startswith("#") or line.startswith(("snr_db", "variant", "figure")):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return out


class TestFormulaEval:
    def test_table_values(self):
        assert run_cli(["formula-eval", "--snr", "25", "--nt", "8"]).output.strip() == "1"
        assert run_cli(["formula-eval", "--snr", "16", "--nt", "8"]).output.strip() == "4"
        assert run_cli(["formula-eval", "--snr", "34", "--nt", "8"]).output.strip() == "1"

    def test_error_is_one_line_nonzero_exit(self):
        res = CliRunner().invoke(main, ["formula-eval", "--snr", "20", "--nt", "1"])
        assert res.exit_code != 0
        assert "n_t" in res.output


class TestValidation:
    def test_iters_out_of_range(self, tmp_path):
        res = CliRunner().invoke(
            main,
            ["ber-sweep", "--nt", "8", "--nr", "8", "--snr", "8",
             "--out", str(tmp_path), "--iters", "9"],
        )
        assert res.exit_code != 0
        assert "iterations 9 outside [0, 7]" in res.output

    def test_iters_only_with_fixed_policy(self, tmp_path):
        res = CliRunner().invoke(
            main, ["ber-sweep", *FAST, "--policy", "formula", "--iters", "3", "--out", str(tmp_path / "o")]
        )
        assert res.exit_code != 0
        assert "--iters" in res.output and "--policy formula" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, named", [(["--policy", "feedback", "--iters", "3"], "--policy"), (["--iters", "3"], "--iters")]
    )
    def test_linear_detector_refuses_depth_flags(self, tmp_path, flags, named):
        res = CliRunner().invoke(
            main, ["ber-sweep", "--nt", "4", "--nr", "4", "--mod", "qpsk", "--subcarriers", "8", "--snr", "8",
                   "--detector", "zf", *flags, "--out", str(tmp_path / "o")]
        )
        assert res.exit_code != 0
        assert named in res.output and "--detector zf" in res.output
        assert not (tmp_path / "o").exists()

    def test_defaults_are_the_sweep_config_defaults(self):
        # each key with a SweepConfig field takes that field's default; the
        # one literal left, the snr text, must parse to the default SNR list
        assert {key for key, o in OPTIONS.items() if o.field is None} == {"snr", "detector", "policy", "iters", "calib"}
        assert _sweep_config(DEFAULTS) == SweepConfig()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt = 4\nbogus_key = 3\n")
        res = CliRunner().invoke(main, ["ber-sweep", "--config", str(cfg)])
        assert res.exit_code != 0
        assert "bogus_key" in res.output

    @pytest.mark.parametrize("line", ["policy = feedback", "bench_detections = 5"])
    def test_config_file_key_the_command_never_reads(self, tmp_path, line):
        # iter-sweep runs every fixed count and no bench: it would record a
        # policy it never ran, or refuse a value it never uses
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nt = 4\n{line}\n")
        res = CliRunner().invoke(main, ["iter-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code != 0
        key = line.split(" =")[0]
        assert f"iter-sweep does not read config key {key!r}" in res.output
        assert not (tmp_path / "o").exists()

    def test_bad_config_value_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = notanumber\n")
        res = CliRunner().invoke(main, ["ber-sweep", "--config", str(cfg)])
        assert res.exit_code != 0
        assert "seed" in res.output

    def test_compare_requires_calib(self, tmp_path):
        res = CliRunner().invoke(main, ["compare", *FAST, "--out", str(tmp_path)])
        assert res.exit_code != 0
        assert "--calib" in res.output


class TestPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr = 2,4\nnt = 4\nnr = 4\nmod = qpsk\nsubcarriers = 8\n")
        out = tmp_path / "o1"
        res = run_cli(["ber-sweep", "--config", str(cfg), "--out", str(out), "--snr", "8"])
        assert res.exit_code == 0
        manifest = json.loads((out / "ber_sweep_manifest.json").read_text())
        # flag wins over the file's snr list
        assert manifest["config"]["snr"] == "8"
        # file wins over defaults
        assert manifest["config"]["nt"] == 4
        # untouched keys fall back to defaults
        assert manifest["config"]["core"] == "mmse"
        assert manifest["config"]["seed"] == 1

    def test_file_alone_applies(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr = 8\nnt = 4\nnr = 4\nmod = qpsk\nsubcarriers = 8\nseed = 9\n")
        out = tmp_path / "o2"
        res = run_cli(["ber-sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((out / "ber_sweep_manifest.json").read_text())
        assert manifest["config"]["seed"] == 9


class TestSubcommands:
    def test_ber_sweep_writes_csv_and_manifest(self, tmp_path):
        res = run_cli(["ber-sweep", *FAST, "--out", str(tmp_path)])
        assert res.exit_code == 0
        text = (tmp_path / "ber_sweep.csv").read_text()
        assert text.splitlines()[1] == "snr_db,n_i,policy,bit_errors,total_bits,ber,mean_detect_ns"
        manifest = json.loads((tmp_path / "ber_sweep_manifest.json").read_text())
        assert manifest["outputs"] == ["ber_sweep.csv"]
        assert manifest["rng"]["bit_generator"] == "philox4x64"

    def test_linear_detector_sweep(self, tmp_path):
        res = run_cli(["ber-sweep", *FAST, "--detector", "zf", "--out", str(tmp_path)])
        assert res.exit_code == 0
        rows = (tmp_path / "ber_sweep.csv").read_text().strip().split("\n")[2:]
        assert all(r.split(",")[2] == "zf" for r in rows)

    def test_linear_run_header_names_its_core(self, tmp_path):
        # a ZF linear run is V-BLAST with zero iterations on the ZF core: same counts, same header
        linear, osic = tmp_path / "linear", tmp_path / "osic"
        run_cli(["ber-sweep", *FAST, "--detector", "zf", "--out", str(linear)])
        run_cli(["ber-sweep", *FAST, "--iters", "0", "--core", "zf", "--out", str(osic)])
        lines = {d: (d / "ber_sweep.csv").read_text().strip().split("\n") for d in (linear, osic)}
        assert " core=zf " in lines[linear][0]
        assert lines[linear][0] == lines[osic][0]
        assert [r.split(",")[3:5] for r in lines[linear][2:]] == [["4121", "24576"]]
        assert [r.split(",")[3:5] for r in lines[osic][2:]] == [["4121", "24576"]]
        # the manifest keeps the configuration as resolved
        assert json.loads((linear / "ber_sweep_manifest.json").read_text())["config"]["core"] == "mmse"

    def test_capped_point_warns_on_stderr(self, tmp_path):
        # at 60 dB 2x2 QPSK stops at the symbol budget short of min_errors; 8 dB does not
        args = ["ber-sweep", "--nt", "2", "--nr", "2", "--mod", "qpsk", "--snr", "8,60", "--iters", "0"]
        res = run_cli([*args, "--out", str(tmp_path)])
        assert res.exit_code == 0
        assert res.stderr.splitlines() == [
            "warning: fixed n_i=0 at 60 dB stopped at the symbol budget with 2 bit errors, short of min_errors=100"
        ]
        rows = (tmp_path / "ber_sweep.csv").read_text().splitlines()
        assert rows[1] == "snr_db,n_i,policy,bit_errors,total_bits,ber,mean_detect_ns"
        assert [r.split(",")[:4] for r in rows[2:]][1] == ["60", "0", "fixed", "2"]

    def test_calibrate_warns_on_capped_cells(self, tmp_path):
        # at 60 dB both grid cells of 2x2 QPSK (n_i = 0 and 1) stop at the symbol budget
        res = run_cli(["calibrate", "--nt", "2", "--nr", "2", "--mod", "qpsk", "--snr", "60", "--out", str(tmp_path)])
        assert res.exit_code == 0
        lines = res.stderr.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: fixed n_i=0 at 60 dB stopped at the symbol budget with ")
        assert lines[1].startswith("warning: fixed n_i=1 at 60 dB stopped at the symbol budget with ")
        assert len((tmp_path / "calibrate.csv").read_text().splitlines()) == 2 + 2

    def test_iter_sweep_enumerates_counts(self, tmp_path):
        res = run_cli(["iter-sweep", *FAST, "--out", str(tmp_path)])
        assert res.exit_code == 0
        rows = (tmp_path / "iter_sweep.csv").read_text().strip().split("\n")[2:]
        assert [int(r.split(",")[1]) for r in rows] == [0, 1, 2, 3]

    def test_formula_policy_sweep(self, tmp_path):
        res = run_cli([
            "ber-sweep", "--nt", "8", "--nr", "8", "--mod", "qam16", "--subcarriers", "8",
            "--snr", "25", "--policy", "formula", "--out", str(tmp_path),
        ])
        assert res.exit_code == 0
        row = (tmp_path / "ber_sweep.csv").read_text().strip().split("\n")[2]
        assert row.split(",")[1] == "1"  # formula picks one iteration at 25 dB
        assert row.split(",")[2] == "formula"

    def test_calibrate_then_compare_and_feedback_sweep(self, tmp_path):
        calib_dir = tmp_path / "calib"
        res = run_cli([
            "calibrate", "--nt", "8", "--nr", "8", "--mod", "qam16", "--subcarriers", "8",
            "--snr", "16,25,34", "--out", str(calib_dir),
        ])
        assert res.exit_code == 0
        calib = calib_dir / "calibrate.csv"
        derived = (calib_dir / "calibrate_derived.csv").read_text().strip().split("\n")
        assert derived[1] == "snr_db,required_n_i"
        assert len(derived) == 2 + 3

        out2 = tmp_path / "cmp"
        res = run_cli([
            "compare", "--nt", "8", "--nr", "8", "--mod", "qam16", "--subcarriers", "8",
            "--snr", "20,30", "--calib", str(calib), "--out", str(out2),
        ])
        assert res.exit_code == 0
        rows = (out2 / "compare.csv").read_text().strip().split("\n")[2:]
        assert sorted(set(r.split(",")[2] for r in rows)) == ["feedback", "formula", "ordinary"]

        out3 = tmp_path / "fb"
        res = run_cli([
            "ber-sweep", "--nt", "8", "--nr", "8", "--mod", "qam16", "--subcarriers", "8",
            "--snr", "30", "--policy", "feedback", "--calib", str(calib), "--out", str(out3),
        ])
        assert res.exit_code == 0
        assert (out3 / "ber_sweep.csv").exists()

    def test_bench_smoke(self, tmp_path):
        calib_dir = tmp_path / "calib"
        run_cli([
            "calibrate", "--nt", "4", "--nr", "4", "--mod", "qpsk", "--subcarriers", "8",
            "--snr", "8,14", "--core", "mmse", "--out", str(calib_dir),
        ])
        out = tmp_path / "bench"
        res = run_cli([
            "bench", "--nt", "4", "--nr", "4", "--mod", "qpsk", "--subcarriers", "8",
            "--snr", "8,14", "--calib", str(calib_dir / "calibrate.csv"),
            "--bench-detections", "150", "--out", str(out),
        ])
        assert res.exit_code == 0
        summary = (out / "bench_summary.csv").read_text().strip().split("\n")
        ordinary = [l for l in summary if l.startswith("ordinary")][0]
        assert float(ordinary.split(",")[2]) == pytest.approx(100.0)

    def test_emit_plot_long_format(self, tmp_path):
        res = run_cli(["iter-sweep", *FAST, "--emit-plot", "--out", str(tmp_path)])
        assert res.exit_code == 0
        plot = (tmp_path / "iter_sweep_plot.csv").read_text().strip().split("\n")
        assert plot[0] == "figure,series,snr_db,ber"
        assert plot[1].startswith("fig2,")  # 4x4 preset


class TestManifestRerun:
    def test_manifest_round_trips_losslessly(self, tmp_path):
        run_cli(["ber-sweep", *FAST, "--out", str(tmp_path)])
        p = tmp_path / "ber_sweep_manifest.json"
        data = json.loads(p.read_text())
        assert json.loads(json.dumps(data)) == data

    def test_rerun_reproduces_non_timing_bytes(self, tmp_path):
        first = tmp_path / "first"
        run_cli(["ber-sweep", *FAST, "--seed", "5", "--out", str(first)])
        second = tmp_path / "second"
        res = run_cli(["rerun", str(first / "ber_sweep_manifest.json"), "--out", str(second)])
        assert res.exit_code == 0
        assert non_timing_lines(first / "ber_sweep.csv") == non_timing_lines(second / "ber_sweep.csv")

    def test_rerun_calibrate_fully_byte_identical(self, tmp_path):
        # calibration CSVs carry no timing column: rerun must match exactly
        first = tmp_path / "first"
        run_cli([
            "calibrate", "--nt", "4", "--nr", "4", "--mod", "qpsk", "--subcarriers", "8",
            "--snr", "8,12", "--out", str(first),
        ])
        second = tmp_path / "second"
        res = run_cli(["rerun", str(first / "calibrate_manifest.json"), "--out", str(second)])
        assert res.exit_code == 0
        for name in ("calibrate.csv", "calibrate_derived.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @staticmethod
    def _write_table(path, ber):
        from osicsim.policy import CalibrationTable

        CalibrationTable(
            [8.0, 8.0, 14.0, 14.0], [1, 2, 1, 2], ber, [10_000] * 4,
            {"mod": "qpsk", "nt": 4, "nr": 4, "core": "mmse"},
        ).save_csv(path)

    def _feedback_run(self, tmp_path, monkeypatch):
        """A feedback-policy sweep started in ``tmp_path`` with a relative ``--calib`` path."""
        self._write_table(tmp_path / "table.csv", [2e-2, 5e-3, 1e-3, 1e-4])
        monkeypatch.chdir(tmp_path)
        res = run_cli([
            "ber-sweep", *FAST, "--policy", "feedback", "--target-ber", "1e-2",
            "--calib", "table.csv", "--out", "first",
        ])
        assert res.exit_code == 0
        return tmp_path / "first" / "ber_sweep_manifest.json"

    def test_rerun_resolves_calib_from_another_directory(self, tmp_path, monkeypatch):
        manifest = self._feedback_run(tmp_path, monkeypatch)
        calib = json.loads(manifest.read_text())["calib"]
        table = tmp_path / "table.csv"
        assert calib["path"] == str(table.resolve())
        assert calib["sha256"] == hashlib.sha256(table.read_bytes()).hexdigest()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        res = run_cli(["rerun", str(manifest), "--out", "second"])
        assert res.exit_code == 0, res.output
        assert non_timing_lines(tmp_path / "first" / "ber_sweep.csv") == non_timing_lines(
            elsewhere / "second" / "ber_sweep.csv"
        )

    def test_rerun_refuses_changed_calib(self, tmp_path, monkeypatch):
        manifest = self._feedback_run(tmp_path, monkeypatch)
        recorded = json.loads(manifest.read_text())["calib"]["sha256"]
        self._write_table(tmp_path / "table.csv", [2e-2, 2e-2, 1e-3, 1e-4])
        actual = hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest()
        assert actual != recorded
        res = CliRunner().invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "second")])
        assert res.exit_code != 0
        assert recorded in res.output and actual in res.output
        assert not (tmp_path / "second").exists()

    @pytest.mark.parametrize("command", ["ber-sweep", "iter-sweep", "calibrate", "compare", "bench"])
    def test_rerun_reproduces_every_command(self, tmp_path, command):
        self._write_table(tmp_path / "table.csv", [2e-2, 5e-3, 1e-3, 1e-4])
        extra = {
            "calibrate": ["--snr", "8,12"],
            "compare": ["--calib", str(tmp_path / "table.csv")],
            "bench": ["--calib", str(tmp_path / "table.csv"), "--bench-detections", "100"],
        }.get(command, [])
        first, second = tmp_path / "first", tmp_path / "second"
        res = run_cli([command, *FAST, *extra, "--seed", "5", "--emit-plot", "--out", str(first)])
        assert res.exit_code == 0, res.output
        manifest = f"{command.replace('-', '_')}_manifest.json"
        res = run_cli(["rerun", str(first / manifest), "--out", str(second)])
        assert res.exit_code == 0, res.output
        recorded, replayed = (json.loads((d / manifest).read_text()) for d in (first, second))
        assert replayed["config"] == recorded["config"]
        assert replayed["outputs"] == recorded["outputs"]
        timed = {"ber_sweep.csv", "iter_sweep.csv", "compare.csv", "bench.csv"}
        for name in recorded["outputs"]:
            if name == "bench_summary.csv":  # every value in it is a timing
                continue
            if name in timed:
                assert non_timing_lines(first / name) == non_timing_lines(second / name), name
            else:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_worker_count_does_not_change_counts(self, tmp_path):
        a = tmp_path / "w1"
        b = tmp_path / "w8"
        run_cli(["ber-sweep", *FAST, "--snr", "6,10", "--workers", "1", "--out", str(a)])
        run_cli(["ber-sweep", *FAST, "--snr", "6,10", "--workers", "8", "--out", str(b)])
        assert non_timing_lines(a / "ber_sweep.csv")[1:] == non_timing_lines(b / "ber_sweep.csv")[1:]


class TestHelpCoverage:
    def test_every_documented_flag_appears_in_help(self):
        flags = [
            "--mod", "--seed", "--subcarriers", "--nt", "--nr", "--detector", "--core",
            "--iters", "--policy", "--target-ber", "--calib", "--snr-est", "--out",
            "--emit-plot", "--snr", "--min-symbols", "--min-errors", "--workers", "--config",
        ]
        helps = []
        for cmd in ["ber-sweep", "iter-sweep", "calibrate", "bench", "compare", "formula-eval"]:
            helps.append(run_cli([cmd, "--help"]).output)
        combined = "\n".join(helps)
        for flag in flags:
            assert flag in combined, flag

    def test_group_help_lists_subcommands(self):
        out = run_cli(["--help"]).output
        for cmd in ["ber-sweep", "iter-sweep", "calibrate", "bench", "compare", "formula-eval", "rerun"]:
            assert cmd in out


class TestBoundaryValues:
    """Values no run can use are refused before any simulation starts."""

    @pytest.mark.parametrize("snr", ["nan", "-inf", "inf", "8,nan"])
    def test_ber_sweep_rejects_non_finite_snr(self, tmp_path, snr):
        res = CliRunner().invoke(main, ["ber-sweep", *FAST, f"--snr={snr}", "--out", str(tmp_path)])
        assert res.exit_code != 0
        assert "snr_db_list entries must be finite" in res.output

    def test_snr_range_rejects_non_finite_bound(self, tmp_path):
        res = CliRunner().invoke(main, ["ber-sweep", *FAST, "--snr", "0:inf:2", "--out", str(tmp_path)])
        assert res.exit_code != 0
        assert "must be finite" in res.output

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_formula_eval_rejects_non_finite_snr(self, snr):
        res = CliRunner().invoke(main, ["formula-eval", f"--snr={snr}"])
        assert res.exit_code != 0
        assert "finite SNR" in res.output

    @pytest.mark.parametrize("command", [["calibrate"], ["ber-sweep", "--policy", "formula"]])
    @pytest.mark.parametrize("target", ["0.7", "0.5"])
    def test_target_ber_has_one_domain(self, tmp_path, command, target):
        res = CliRunner().invoke(main, [*command, *FAST, "--target-ber", target, "--out", str(tmp_path)])
        assert res.exit_code != 0
        assert "target_ber must lie in (0, 0.5)" in res.output


@pytest.fixture(scope="module")
def valid_manifest(tmp_path_factory):
    """The manifest of a fast ``ber-sweep`` run, as a dict."""
    out = tmp_path_factory.mktemp("valid")
    assert run_cli(["ber-sweep", *FAST, "--out", str(out)]).exit_code == 0
    return json.loads((out / "ber_sweep_manifest.json").read_text())


class TestBoundaryInputs:
    """Config files and manifests are checked against the same ``OPTIONS`` rows as flags."""

    def test_config_file_value_outside_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mod = QPSK\n")
        res = CliRunner().invoke(main, ["ber-sweep", *FAST[:4], "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code != 0
        assert "'mod'" in res.output and "QPSK" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("bogus", lambda c: c.update(bogus=1)),
            ("seed", lambda c: c.pop("seed")),
            ("seed", lambda c: c.update(seed=True)),
            ("nt", lambda c: c.update(nt=4.0)),
            ("mod", lambda c: c.update(mod="QPSK")),
            ("emit_plot", lambda c: c.update(emit_plot="yes")),
        ],
        ids=["unknown-key", "missing-key", "bool-seed", "float-nt", "mod-outside-choices", "text-emit-plot"],
    )
    def test_rerun_refuses_bad_manifest_config(self, tmp_path, valid_manifest, key, edit):
        data = json.loads(json.dumps(valid_manifest))
        edit(data["config"])
        manifest = tmp_path / "ber_sweep_manifest.json"
        manifest.write_text(json.dumps(data))
        res = CliRunner().invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "o")])
        assert res.exit_code != 0
        assert repr(key) in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key, value", [("iter-sweep", "policy", "feedback"), ("bench", "iters", 3)]
    )
    def test_rerun_refuses_key_the_command_does_not_read(self, tmp_path, valid_manifest, command, key, value):
        data = json.loads(json.dumps(valid_manifest))
        data["command"] = command
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(data))
        with mock.patch.dict(cli.COMMANDS, {command: cli.COMMANDS[command]._replace(run=lambda r: ({}, None, None))}):
            # at its default the key passes; the command runs nothing here
            assert run_cli(["rerun", str(manifest), "--out", str(tmp_path / "default")]).exit_code == 0
            data["config"][key] = value
            manifest.write_text(json.dumps(data))
            res = CliRunner().invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "o")])
        assert res.exit_code != 0
        assert f"{command} does not read config key {key!r}" in res.output and repr(value) in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, recorded",
        [
            (lambda d: d["rng"].update(key_scheme="(seed, cell, batch)"), "(seed, cell, batch)"),
            (lambda d: d.pop("rng"), "None"),
        ],
        ids=["other-key-scheme", "missing"],
    )
    def test_rerun_refuses_another_rng_scheme(self, tmp_path, valid_manifest, edit, recorded):
        data = json.loads(json.dumps(valid_manifest))
        edit(data)
        manifest = tmp_path / "ber_sweep_manifest.json"
        manifest.write_text(json.dumps(data))
        res = CliRunner().invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "o")])
        assert res.exit_code != 0
        assert recorded in res.output and "(seed, stream)" in res.output
        assert not (tmp_path / "o").exists()

    def test_manifest_records_versions_and_machine(self, valid_manifest):
        import platform

        import numpy as np

        from osicsim.harness import _machine_note

        assert valid_manifest["python"] == platform.python_version()
        assert valid_manifest["numpy"] == np.__version__
        assert valid_manifest["machine"] == _machine_note()

    @pytest.mark.parametrize("key", list(OPTIONS))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_config_file_value_reaches_manifest(self, key, data):
        option = OPTIONS[key]
        if isinstance(option.type, tuple):
            values = st.sampled_from(option.type)
        elif option.type is int:
            values = st.integers(0, 2**64 - 1)
        elif option.type is float:
            values = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
        else:
            values = st.from_regex(r"[0-9A-Za-z:.,/_-]+", fullmatch=True)
        value = data.draw(values)
        text = repr(value) if isinstance(value, float) else str(value)
        # the first command that reads the key; only the configuration path is
        # under test here, so the command runs nothing
        command = next(name for name, c in cli.COMMANDS.items() if key in cli._COMMON_KEYS or key in c.extra)
        stub = cli.COMMANDS[command]._replace(run=lambda resolved: ({}, None, None))
        runner = CliRunner()
        with mock.patch.dict(cli.COMMANDS, {command: stub}), runner.isolated_filesystem():
            Path("run.cfg").write_text(f"{key} = {text}\n")
            res = runner.invoke(main, [command, "--config", "run.cfg", "--out", "o"])
            assert res.exit_code == 0, res.output
            config = json.loads(Path(f"o/{command.replace('-', '_')}_manifest.json").read_text())["config"]
        assert config[key] == value
        assert type(config[key]) is type(value)
