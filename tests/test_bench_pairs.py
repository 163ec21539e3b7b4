"""The verdict rule of ``tools/bench_pairs.py`` on hand-made paired runs."""

import importlib.util
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
        bench_pairs.main([str(repo), str(repo), "--pairs", "9"])
    assert exc.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err
