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
    assert pair["wins"]["rate"] == {"better": "higher", "pairs": 2, "after_wins": 1, "before_wins": 0}
    assert pair["wins"]["ms"] == {"better": "lower", "pairs": 2, "after_wins": 1, "before_wins": 1}


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
