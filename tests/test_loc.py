"""The rows of ``tools/loc.py``, for one package directory and for two."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# three code lines; the docstring, the comment and the blank line do not count
MODULE = '"""Docstring."""\n\n# comment\nx = 1\ny = [\n]\n'


def test_one_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("z = 2\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a                3",
        "b                1",
        "total            4",
    ]


def test_two_directories(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text(MODULE)
    (old / "gone.py").write_text("z = 2\n")
    (new / "a.py").write_text("x = 1\n")
    (new / "added.py").write_text(MODULE)
    assert loc.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a                3     1",
        "added            -     3",
        "gone             1     -",
        "total            4     4",
    ]
