"""The pair driver's summary: quartiles, and wins by each metric's
direction; and the shape of every committed ``BENCH_*.json``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(rev, seed, correct=True, **metrics):
    return {"rev": rev, "seed": seed, "exit": 0, "correct": correct, "metrics": metrics}


def test_quartiles():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_follow_each_metric_direction_and_skip_incorrect_runs():
    runs = [
        _run("a", 1, rate=1.0, ms=10.0),
        _run("b", 1, rate=2.0, ms=12.0),
        _run("b", 2, rate=3.0, ms=8.0),
        _run("a", 2, rate=3.0, ms=9.0),
        # An incorrect run counts nowhere, so seed 3 makes no pair.
        _run("a", 3, rate=9.0, ms=1.0),
        _run("b", 3, correct=False, rate=0.0, ms=99.0),
    ]
    summary, pairs = bench_pairs.summarize(runs, ["a", "b"], {"rate": "higher", "ms": "lower"})
    assert summary["b"]["rate"] == {"n": 2, "median": 2.5, "q1": 2.25, "q3": 2.75}
    assert summary["a"]["ms"]["n"] == 3
    (pair,) = pairs
    assert (pair["before"], pair["after"]) == ("a", "b")
    assert pair["wins"]["rate"] == {
        "better": "higher", "pairs": 2, "after_wins": 1, "before_wins": 0, "gain_counts": False
    }
    assert pair["wins"]["ms"] == {
        "better": "lower", "pairs": 2, "after_wins": 1, "before_wins": 1, "gain_counts": False
    }


def _pair(before, after, better="lower"):
    """The "ms" entry of the one pair of revisions "a" then "b", whose runs
    over seeds 1, 2, ... have the given values."""
    runs = [_run("a", seed, ms=v) for seed, v in enumerate(before, 1)]
    runs += [_run("b", seed, ms=v) for seed, v in enumerate(after, 1)]
    (pair,) = bench_pairs.summarize(runs, ["a", "b"], {"ms": better})[1]
    return pair["wins"]["ms"]


# Ten seeds; the earlier revision's quartiles are 12.25 and 17.75 (IQR 5.5)
# and its median 15.0.
BEFORE = [10.0, 11.0, 12.0, 13.0, 14.0, 16.0, 17.0, 18.0, 19.0, 20.0]


@pytest.mark.parametrize(
    "after, counts",
    [
        # Nine wins of ten and a median 6 lower: counts.
        ([v - 6 for v in BEFORE[:9]] + [BEFORE[9] + 1], True),
        # Eight wins of ten, the same median shift: does not count.
        ([v - 6 for v in BEFORE[:8]] + [v + 1 for v in BEFORE[8:]], False),
        # Nine wins and a tie: the tie goes to neither side, nine of ten counts.
        ([v - 6 for v in BEFORE[:9]] + [BEFORE[9]], True),
        # Eight wins and two ties: does not count.
        ([v - 6 for v in BEFORE[:8]] + BEFORE[8:], False),
        # Ten wins, but the median moves by 5, within the IQR of 5.5: does not count.
        ([v - 5 for v in BEFORE], False),
        # Ten wins, the median moves by 5.6, past the IQR: counts.
        ([v - 5.6 for v in BEFORE], True),
    ],
)
def test_a_gain_counts_on_nine_of_ten_wins_and_a_median_shift_past_the_iqr(after, counts):
    wins = _pair(BEFORE, after)
    assert wins["gain_counts"] is counts


def test_a_gain_counts_in_the_metric_direction():
    higher = [v + 6 for v in BEFORE]
    assert _pair(BEFORE, higher, better="higher")["gain_counts"] is True
    assert _pair(BEFORE, higher, better="lower")["gain_counts"] is False
    assert _pair(higher, BEFORE, better="lower")["gain_counts"] is True


def test_no_paired_seed_is_no_gain():
    runs = [_run("a", 1, ms=10.0), _run("b", 2, ms=1.0)]
    (pair,) = bench_pairs.summarize(runs, ["a", "b"], {"ms": "lower"})[1]
    assert pair["wins"]["ms"]["pairs"] == 0 and pair["wins"]["ms"]["gain_counts"] is False


def test_fewer_than_ten_pairs_show_no_gain():
    """Nine seeds, each won by far: too few pairs to count."""
    assert _pair(BEFORE[:9], [v - 6 for v in BEFORE[:9]])["gain_counts"] is False


def _committed_bench_files() -> list[str]:
    """The committed ``BENCH_*.json`` files; outside a git tree (a source
    archive, say), every one in the root."""
    listed = subprocess.run(["git", "ls-files", "BENCH_*.json"], cwd=ROOT, capture_output=True, text=True)
    return listed.stdout.split() or sorted(path.name for path in ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("name", _committed_bench_files())
def test_committed_bench_file_has_the_driver_schema(name):
    """A truncated or hand-edited evidence file fails here."""
    report = json.loads((ROOT / name).read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert report["command"] and report["seeds"] and report["seconds"] > 0 and report["python"]
    assert report["nproc"] >= 1
    assert report["revs"] and all("commit" in rev for rev in report["revs"])
    assert report["workloads"]
    for workload in report["workloads"].values():
        assert {"runs", "summary", "pairs"} <= set(workload)
        assert workload["runs"]
        for run in workload["runs"]:
            assert run["correct"] is True, run
            assert end_to_end <= set(run["metrics"]), run
