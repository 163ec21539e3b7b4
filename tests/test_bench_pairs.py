"""The verdict rule of ``tools/bench_pairs.py`` on hand-made paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"unit": "MB", "better": "lower", "bound": 0.2}
PARENT = [85.3, 85.4, 85.2, 85.3, 85.5, 85.3, 85.2, 85.4, 85.3, 85.3]
NO_FAILS = {"parent": 0, "change": 0}


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([v - 5.0 for v in PARENT], "gain"),
        # better in 8 of 10 pairs only: short of nine tenths
        ([v - 5.0 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]], "no regression"),
        ([v + 0.05 for v in PARENT], "no regression"),
        ([v * 1.3 for v in PARENT], "regression"),
        ([85.3, 40.0, 120.0, 85.3, 40.0, 120.0, 85.3, 40.0, 120.0, 85.3], "unresolved"),
    ],
    ids=["gain", "too-few-wins", "within-bound", "beyond-bound", "spread-wider-than-bound"],
)
def test_verdicts(change, verdict):
    record = bench_pairs.metric_record(PARENT, change, NO_FAILS, LOWER)
    assert record["verdict"] == verdict
    assert record["parent_runs"] == PARENT and record["change_runs"] == change


def test_higher_is_better_flips_the_direction():
    higher = {**LOWER, "better": "higher"}
    assert bench_pairs.metric_record(PARENT, [v - 5.0 for v in PARENT], NO_FAILS, higher)["verdict"] == "no regression"
    assert bench_pairs.metric_record(PARENT, [v * 0.7 for v in PARENT], NO_FAILS, higher)["verdict"] == "regression"
    assert bench_pairs.metric_record(PARENT, [v * 1.3 for v in PARENT], NO_FAILS, higher)["verdict"] == "gain"


def test_no_gain_when_the_change_fails_more():
    change = [v - 5.0 for v in PARENT]
    assert bench_pairs.metric_record(PARENT, change, {"parent": 0, "change": 0}, LOWER)["verdict"] == "gain"
    assert bench_pairs.metric_record(PARENT, change, {"parent": 2, "change": 2}, LOWER)["verdict"] == "gain"
    assert bench_pairs.metric_record(PARENT, change, {"parent": 0, "change": 1}, LOWER)["verdict"] == "no regression"


def test_fewer_than_ten_pairs_refused(capsys):
    repo = Path(__file__).resolve().parent.parent
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(repo), str(repo), "--number", "26", "--pairs", "9"])
    assert exc.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err


def test_number_names_the_file_and_its_seeds(tmp_path, monkeypatch):
    # a higher BENCH_*.json in the directory used to decide the number
    repo = Path(__file__).resolve().parent.parent
    (tmp_path / "BENCH_30.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout, seed))
        metrics = {m: {"value": 1.0 + seed % 3} for m in ("setup_s", "vectors_per_s", "peak_rss_mb")}
        return {"metrics": metrics, "failed": 0, "attempted": 1,
                "provenance": {"cpu": "cpu", "python": "3", "nproc": 2, "numpy": "2", "src_sha256": "0"}}

    monkeypatch.setattr(bench_pairs, "bench_run", fake_run)
    assert bench_pairs.main([str(repo), str(repo), "--number", "26", "--workload", "linear-4x4-qpsk"]) == 0
    seeds = list(range(2600, 2610))
    assert [seed for _, seed in runs] == [s for s in seeds for _ in range(2)]
    report = json.loads((tmp_path / "BENCH_26.json").read_text())
    assert report["workloads"]["linear-4x4-qpsk"]["seeds"] == seeds
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_26.json", "BENCH_30.json"]
