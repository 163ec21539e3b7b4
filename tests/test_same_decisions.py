"""``tools/same_decisions.py`` on a tiny grid: one tree against itself,
and against itself with a perturbed slicer; and every system of its grid
at one SNR and a small batch."""

import importlib.util
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_decisions", _ROOT / "tools" / "same_decisions.py")
same_decisions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_decisions)
SRC = str(_ROOT / "src")


def tiny_grid(monkeypatch):
    monkeypatch.setattr(same_decisions, "SYSTEMS", ((4, 2, "qpsk", 64),))
    monkeypatch.setattr(same_decisions, "SNRS_DB", (10.0,))


def test_one_tree_makes_the_same_decisions(monkeypatch, capsys):
    tiny_grid(monkeypatch)
    assert same_decisions.main([SRC, SRC, "--seeds", "2"]) == 0
    # 2 seeds x 2 cores x 2 depths x 2 loops, 64 vectors of 2 symbols each
    assert capsys.readouterr().out.splitlines() == [
        "same decisions: 0 indices, 0 orders and 0 ok differ; compared 16 calls, 2,048 symbols"
    ]


def test_differences_are_reported(monkeypatch, capsys):
    tiny_grid(monkeypatch)
    load = same_decisions.load

    def perturbed(src, name):
        tree = load(src, name)
        if name.endswith("new"):  # a slicer that returns the next point index
            slice_indices = tree.batched.slice_indices
            tree.batched.slice_indices = lambda z, c: (slice_indices(z, c) + 1) % len(c.points)
        return tree

    monkeypatch.setattr(same_decisions, "load", perturbed)
    assert same_decisions.main([SRC, SRC, "--seeds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9  # every call differs, then the summary
    assert lines[0] == "4x2 qpsk zf 10 dB depth 0 seed 0 vblast_indices_batch: 128 indices, 0 orders, 0 ok"
    assert lines[-1].startswith("decisions differ: ")
    assert lines[-1].endswith(" indices, 0 orders and 0 ok differ; compared 8 calls, 1,024 symbols")


def test_every_system_of_the_grid_runs(monkeypatch, capsys):
    systems = [(n_r, n_t, mod, 16) for n_r, n_t, mod, _ in same_decisions.SYSTEMS]
    monkeypatch.setattr(same_decisions, "SYSTEMS", tuple(systems))
    monkeypatch.setattr(same_decisions, "SNRS_DB", (10.0,))
    assert same_decisions.main([SRC, SRC, "--seeds", "1"]) == 0
    calls = sum(2 * n_t * 2 for _, n_t, _, _ in systems)  # cores x depths x loops
    symbols = sum(2 * n_t * 2 * 16 * n_t for _, n_t, _, _ in systems)
    assert capsys.readouterr().out.splitlines() == [
        f"same decisions: 0 indices, 0 orders and 0 ok differ; compared {calls:,} calls, {symbols:,} symbols"
    ]
