"""Every command's outputs on one seed, pinned by digest.

Runs the small CLI runs of ``tools/same_outputs.py`` on seed 1 and
compares the SHA-256 of each file they write against
``tests/output_digests.json``. What ``same_outputs.py`` leaves out of its
comparison is left out here too (timing columns, ``bench_summary.csv``
values, ``created_utc``), and so is what depends on the machine rather
than on the code: the manifest's ``python``, ``numpy`` and ``machine``
fields, the ``machine=`` token of the bench CSV headers, and the
directories of calibration-table paths.

The digests change only with the manifest's ``rng.key_scheme``. To
regenerate them from a source tree, run from the repository root:

    python3 tests/test_output_digests.py SRC
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("output_digests.json")
SEED = 1


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _machine_free(value):
    """``value`` as ``tool.comparable`` returns it, without machine-dependent fields."""
    if isinstance(value, dict):  # a manifest
        value = {k: v for k, v in value.items() if k not in ("python", "numpy", "machine")}
        if value["config"].get("calib"):
            value["config"] = {**value["config"], "calib": Path(value["config"]["calib"]).name}
        if "calib" in value:
            value["calib"] = {**value["calib"], "path": Path(value["calib"]["path"]).name}
        return value
    if isinstance(value, list):  # CSV lines
        return [" ".join(t for t in line.split(" ") if not t.startswith("machine=")) if line.startswith("#") else line
                for line in value]
    return value


def digests(src: Path) -> dict:
    """``{run: {file: sha256}}`` of every run of ``tool.RUNS`` on ``SEED`` under ``src``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / tool.TABLE).write_text(tool.TABLE_TEXT)
        for name, template in tool.RUNS:
            args = [str(tmp / tool.TABLE) if a == tool.TABLE else a for a in template]
            res = tool.cli(src, [*args, "--seed", str(SEED), "--out", str(tmp / name)])
            assert res.returncode == 0, f"{name}: exit {res.returncode}: {res.stderr.strip()}"
            out[name] = {
                file: hashlib.sha256(json.dumps(_machine_free(value), sort_keys=True).encode()).hexdigest()
                for file, value in tool.outputs(tmp / name).items()
            }
    return out


def test_outputs_match_committed_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = digests(ROOT / "src")
    problems = [f"{run}: only one of the committed and the new runs exists" for run in sorted(set(expected) ^ set(actual))]
    for run in sorted(set(expected) & set(actual)):
        for file in sorted(set(expected[run]) | set(actual[run])):
            if expected[run].get(file) != actual[run].get(file):
                problems.append(f"{run}: {file} differs from its committed digest")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/test_output_digests.py SRC")
    DIGESTS.write_text(json.dumps(digests(Path(sys.argv[1]).resolve()), indent=1, sort_keys=True) + "\n")
