"""The summary of ``tools/same_outputs.py``, on stand-in CLI runs."""

import importlib.util
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def fake_cli(help_of_new_tree: str):
    """A stand-in for running the CLI: every run writes one CSV and a manifest."""

    def cli(src, args):
        if args[-1] == "--help":
            text = help_of_new_tree if src.name == "new" and args == ["bench", "--help"] else "help"
            return subprocess.CompletedProcess(args, 0, text, "")
        out = Path(args[args.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "ber_sweep.csv").write_text("snr_db,ber,mean_detect_ns\n8,0.1,123\n")
        (out / "ber_sweep_manifest.json").write_text('{"seed": 1}')
        return subprocess.CompletedProcess(args, 0, "", "")

    return cli


def test_summary_on_same_outputs(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "cli", fake_cli("help"))
    assert same_outputs.main(["old", "new"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "same outputs; compared 30 of 30 runs (15 runs x 2 seeds), 60 files, 30 reruns and 8 help texts"
    ]


def test_summary_follows_the_differences(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "cli", fake_cli("help without --workers"))
    assert same_outputs.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "osicsim bench --help: help text differs",
        "differences found: 1; compared 30 of 30 runs (15 runs x 2 seeds), 60 files, 30 reruns and 8 help texts",
    ]
