"""Run alternating benchmark pairs of two checkouts and judge every metric.

Each checkout is a directory with ``src/``, ``bench/`` and
``BENCHMARK.json``, such as ``git archive`` of a commit unpacked, or a
copy of the working tree. For every workload, pair ``i`` runs

    python3 bench/run.py --workload W --seed SEED --seconds S --trace 0

with ``S`` the ``run_seconds`` of NEW_CHECKOUT's ``BENCHMARK.json``, once
in each checkout on the same seed, the old checkout first in even
pairs and the new one first in odd pairs. Pairs of ``BENCH_<n>.json`` run
seeds ``100 n + i``, so every file measures seeds no earlier file used.

Usage, from the repository root:

    python3 tools/bench_pairs.py OLD_CHECKOUT NEW_CHECKOUT [--workload W ...] [--pairs N]

Without ``--workload`` it runs every workload of NEW_CHECKOUT's
``BENCHMARK.json``. It writes ``BENCH_<n>.json`` next to the highest
existing ``BENCH_*.json`` of the current directory, with ``n`` one above
it, rewriting it after each workload. ``--pairs`` defaults to, and may
not go below, ten. Per end-to-end metric it records
each side's runs, median and quartiles, the ratio of medians and the pairs
the new checkout won, together with the machine note and both checkouts'
``src`` hashes. It prints one verdict per metric and workload, by the rule
of paired runs:

* ``gain``: the new checkout's runs fail no more operations than the old
  one's, the new checkout wins at least nine tenths of the pairs (ties
  count for neither side) and its median is better than the old one's by
  more than the old checkout's interquartile range;
* ``unresolved``: either side's interquartile range, relative to its
  median, is wider than the metric's ``BENCHMARK.json`` bound, and not
  every new run reads better than every old run;
* ``regression``: the new median is worse than the old one by more than
  the bound;
* ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS_PER_FILE = 100
MIN_PAIRS = 10


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run, with its provenance under ``provenance``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=max(600.0, 10 * seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["provenance"] = next(json.loads(line[len("provenance "):]) for line in lines
                                if line.startswith("provenance "))
    return result


def better(value: float, than: float, direction: str) -> bool:
    return value < than if direction == "lower" else value > than


def judge(old: list[float], new: list[float], old_q: list[float], new_q: list[float], wins: int,
          failed: dict, spec: dict) -> str:
    """The verdict on one metric; ``old_q`` and ``new_q`` are each side's three quartiles.

    ``failed`` counts each side's failed operations: a change that fails
    more often than the parent gains nothing, however its metrics read.
    """
    direction, bound = spec["better"], spec["bound"]
    beyond_spread = abs(new_q[1] - old_q[1]) > old_q[2] - old_q[0]
    fails_no_more = failed["change"] <= failed["parent"]
    if fails_no_more and wins >= 0.9 * len(old) and better(new_q[1], old_q[1], direction) and beyond_spread:
        return "gain"
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (old_q, new_q))
    if spread > bound:
        every_new_better = all(better(n, o, direction) for n in new for o in old)
        return "no regression" if every_new_better else "unresolved"
    worse = (new_q[1] - old_q[1]) / abs(old_q[1]) * (1 if direction == "lower" else -1)
    return "regression" if worse > bound else "no regression"


def metric_record(old: list[float], new: list[float], failed: dict, spec: dict) -> dict:
    wins = sum(better(n, o, spec["better"]) for o, n in zip(old, new))
    old_q = statistics.quantiles(old, n=4)
    new_q = statistics.quantiles(new, n=4)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": old_q[1],
        "parent_iqr": [old_q[0], old_q[2]],
        "change_median": new_q[1],
        "change_iqr": [new_q[0], new_q[2]],
        "ratio_of_medians": new_q[1] / old_q[1],
        "change_better_pairs": wins,
        "verdict": judge(old, new, old_q, new_q, wins, failed, spec),
        "parent_runs": old,
        "change_runs": new,
    }


def next_bench_path() -> Path:
    names = (re.fullmatch(r"BENCH_(\d+)\.json", p.name) for p in Path.cwd().glob("BENCH_*.json"))
    taken = [int(m.group(1)) for m in names if m]
    return Path.cwd() / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, metavar="OLD_CHECKOUT")
    parser.add_argument("new", type=Path, metavar="NEW_CHECKOUT")
    parser.add_argument("--workload", action="append", help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"at least {MIN_PAIRS} (default)")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    spec = json.loads((new / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown or args.pairs < MIN_PAIRS:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else f"--pairs must be at least {MIN_PAIRS}")
    seconds = spec["run_seconds"]
    out = next_bench_path()
    n = int(out.stem.split("_")[1])
    seeds = [SEEDS_PER_FILE * n + i for i in range(args.pairs)]

    report = {
        "config": {
            "command": f"python3 bench/run.py --workload <name> --seed <seed> --seconds {seconds:g} --trace 0",
            "pairs": args.pairs,
            "seeds": f"{seeds[0]}-{seeds[-1]} on every workload; pair i runs one seed on both sides",
            "order": "parent first in even pairs, change first in odd pairs",
        },
        "summary": {},
        "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench_run(old if side == "parent" else new, workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
        prov = {side: runs[side][0]["provenance"] for side in runs}
        report["machine"] = (f"{platform.system()} {platform.machine()} | {prov['parent']['cpu']} | "
                             f"python {prov['parent']['python']} | nproc {prov['parent']['nproc']}")
        report["numpy"] = prov["parent"]["numpy"]
        report["src_sha256"] = {side: prov[side]["src_sha256"] for side in runs}
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        record = {
            "pairs": args.pairs,
            "seeds": seeds,
            "failed": failed,
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
            "metrics": {},
        }
        for name, m in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            record["metrics"][name] = metric_record(values["parent"], values["change"], failed, m)
        report["workloads"][workload] = record
        report["summary"][workload] = {
            name: f"x{r['ratio_of_medians']:.3f} ({r['change_better_pairs']}/{args.pairs} pairs better): {r['verdict']}"
            for name, r in record["metrics"].items()
        }
        out.write_text(json.dumps(report, indent=1) + "\n")

    for workload, record in report["workloads"].items():
        print(f"{workload}: failed {record['failed']['parent']} -> {record['failed']['change']}")
        for name, r in record["metrics"].items():
            print(f"  {name:14s} {r['parent_median']:.6g} [{r['parent_iqr'][0]:.6g}, {r['parent_iqr'][1]:.6g}] -> "
                  f"{r['change_median']:.6g} [{r['change_iqr'][0]:.6g}, {r['change_iqr'][1]:.6g}] {r['unit']}, "
                  f"x{r['ratio_of_medians']:.3f}, {r['change_better_pairs']}/{args.pairs} pairs better: {r['verdict']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
