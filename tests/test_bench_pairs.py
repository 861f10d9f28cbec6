"""The pair driver's summary: quartiles, and wins by each metric's direction."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
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
