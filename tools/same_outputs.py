"""Check that two ``osicsim`` source trees write the same outputs.

Runs a fixed list of small CLI runs on seeds 1 and 2 under each tree
(``PYTHONPATH=TREE python -m osicsim.cli ...``) and compares every file
each run writes:

* BER and bench CSVs without their timing column (the last one);
* ``bench_summary.csv`` by its variant column only, since every value in
  it is a timing;
* manifests as JSON without ``created_utc``;
* calibration tables, derived counts and plot files byte for byte.

It also compares the ``--help`` text of every command, and replays each
manifest written under OLD_SRC with ``rerun`` under NEW_SRC, which must
reproduce the same files. Standard output and standard error are not
compared: they name the output directory and carry timings and warnings.

Usage, from the repository root:

    python3 tools/same_outputs.py OLD_SRC NEW_SRC

Prints each difference, then on every exit a summary of what it
compared: runs, files, reruns and help texts, so a run that stopped early
shows. Exits 1 if there is any difference, else 0. A full check takes
about 40 s on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)
FAST = ["--nt", "4", "--nr", "4", "--mod", "qpsk", "--subcarriers", "8", "--snr", "8,14"]
# the policies' own system, where the formula's pick changes across the SNR list
POLICY_8X8 = ["--nt", "8", "--nr", "8", "--mod", "qam16", "--subcarriers", "8", "--snr", "16,22.75,25"]
TABLE = "table.csv"
# the benchmark's 8x8 16-QAM MMSE calibration table, read in place
CALIB_8X8 = str(Path(__file__).resolve().parent.parent / "bench" / "calib_8x8_qam16.csv")
# (name, arguments); TABLE is replaced by the path of a fixed calibration table
RUNS = [
    ("ber-sweep-iters", ["ber-sweep", *FAST, "--iters", "2"]),
    ("ber-sweep-zf", ["ber-sweep", *FAST, "--detector", "zf"]),
    # a fractional SNR range, whose points are rounded to 1e-6 dB
    ("ber-sweep-fractional", ["ber-sweep", *FAST[:-1], "8:8.3:0.1"]),
    # the ZF core through OSIC iterations, and the 8x8 system at full depth
    ("ber-sweep-zf-iters", ["ber-sweep", *FAST, "--core", "zf", "--iters", "3"]),
    ("ber-sweep-8x8", ["ber-sweep", *POLICY_8X8]),
    # the same cells in a process pool, where each worker draws ahead on its own helper thread
    ("ber-sweep-8x8-w2", ["ber-sweep", *POLICY_8X8, "--workers", "2"]),
    # the linear path with a pilot-estimating config, which reads no estimate
    ("ber-sweep-mmse-pilot", ["ber-sweep", *FAST, "--detector", "mmse", "--snr-est", "pilot"]),
    ("ber-sweep-formula-pilot", ["ber-sweep", *POLICY_8X8, "--policy", "formula", "--snr-est", "pilot"]),
    ("ber-sweep-feedback", ["ber-sweep", *FAST, "--policy", "feedback", "--calib", TABLE]),
    ("iter-sweep", ["iter-sweep", *FAST, "--emit-plot"]),
    ("calibrate", ["calibrate", *FAST, "--emit-plot"]),
    # derives a count between 1 and n_imax at 22.75 and 25 dB; the 4x4 run derives n_imax at both points
    ("calibrate-8x8", ["calibrate", *POLICY_8X8]),
    ("compare", ["compare", *FAST, "--calib", TABLE, "--emit-plot"]),
    ("bench", ["bench", *FAST, "--calib", TABLE, "--bench-detections", "100"]),
    ("bench-8x8", ["bench", *POLICY_8X8, "--calib", CALIB_8X8, "--bench-detections", "100"]),
]
HELP = [[], ["ber-sweep"], ["iter-sweep"], ["calibrate"], ["compare"], ["bench"], ["formula-eval"], ["rerun"]]
TIMED = {"ber_sweep.csv", "iter_sweep.csv", "compare.csv", "bench.csv"}

# a 4x4 QPSK MMSE table in the format `calibrate` writes
TABLE_TEXT = """# mod=qpsk nt=4 nr=4 core=mmse
snr_db,n_i,ber,symbols
8,1,2.000000000000e-02,10000
8,2,5.000000000000e-03,10000
14,1,1.000000000000e-03,10000
14,2,1.000000000000e-04,10000
"""


def cli(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "osicsim.cli", *args], env=env, capture_output=True, text=True)


def comparable(path: Path):
    """The part of an output file that must not change between trees."""
    text = path.read_text()
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(text)
        manifest.pop("created_utc", None)
        return manifest
    lines = text.splitlines()
    if path.name == "bench_summary.csv":
        return [line if line.startswith("#") else line.split(",")[0] for line in lines]
    if path.name in TIMED:
        return [line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines]
    return text


def outputs(directory: Path) -> dict:
    return {p.name: comparable(p) for p in sorted(directory.iterdir())}


def diff(label: str, old: dict, new: dict) -> list[str]:
    problems = [f"{label}: {name} written by one tree only" for name in sorted(set(old) ^ set(new))]
    for name in sorted(set(old) & set(new)):
        if old[name] != new[name]:
            problems.append(f"{label}: {name} differs")
    return problems


def run(src: Path, args: list[str], out: Path, label: str) -> list[str]:
    res = cli(src, [*args, "--out", str(out)])
    if res.returncode != 0:
        return [f"{label}: exit {res.returncode} under {src}: {res.stderr.strip() or res.stdout.strip()}"]
    return []


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / TABLE).write_text(TABLE_TEXT)
        runs = files = reruns = 0
        for args in HELP:
            label = " ".join(["osicsim", *args, "--help"])
            old, new = (cli(src, [*args, "--help"]) for src in (old_src, new_src))
            if (old.returncode, old.stdout) != (new.returncode, new.stdout):
                problems.append(f"{label}: help text differs")
        for seed in SEEDS:
            for name, template in RUNS:
                args = [str(tmp / TABLE) if a == TABLE else a for a in template] + ["--seed", str(seed)]
                label = f"{name} seed {seed}"
                dirs = {tree: tmp / tree / str(seed) / name for tree in ("old", "new", "rerun")}
                errors = run(old_src, args, dirs["old"], label) + run(new_src, args, dirs["new"], label)
                if errors:
                    problems += errors
                    continue
                expected = outputs(dirs["old"])
                problems += diff(label, expected, outputs(dirs["new"]))
                runs += 1
                files += len(expected)
                manifest = next(dirs["old"].glob("*_manifest.json"))
                res = cli(new_src, ["rerun", str(manifest), "--out", str(dirs["rerun"])])
                if res.returncode != 0:
                    problems.append(f"{label}: rerun of the old manifest failed: {res.stderr.strip()}")
                else:
                    problems += diff(f"{label} (rerun of the old manifest)", expected, outputs(dirs["rerun"]))
                    reruns += 1
    for line in problems:
        print(line)
    verdict = f"differences found: {len(problems)}" if problems else "same outputs"
    print(f"{verdict}; compared {runs} of {len(RUNS) * len(SEEDS)} runs ({len(RUNS)} runs x {len(SEEDS)} seeds), "
          f"{files} files, {reruns} reruns and {len(HELP)} help texts")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
