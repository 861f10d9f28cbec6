#!/usr/bin/env python3
"""Run the benchmark on several revisions in alternating pairs.

    python3 scripts/bench_pairs.py REV [REV ...] --workload NAME [--workload NAME ...]
        --seeds N [N ...] [--seconds S] [--trace 0|1] --label LABEL

Run from the root of a reviewlens checkout. Each REV is unpacked with
``git archive REV | tar -x`` under ``.perfbench_work/``; ``.`` stands for
the working tree as it is (the files ``git ls-files -co --exclude-standard``
lists). Each tree runs its own ``perfbench/run.py``, so a revision is
measured with the benchmark it was committed with. For each workload and
seed every revision runs once, and the order of the revisions rotates from
one seed to the next, so no revision always runs first.

The result goes to ``BENCH_<LABEL>.json``: the command line, the revisions,
the seeds, the Python version and ``nproc``; every run's metrics; each
revision's median and quartiles per metric; and, for each adjacent pair of
revisions, how many seeds each side won per metric, by the direction
``BENCHMARK.json`` gives. A revision that cannot be unpacked or has no
benchmark is listed with the reason and not run. Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORK_ROOT = Path(".perfbench_work")
WORKING_TREE = "."


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def unpack(rev: str, dest: Path) -> str:
    """Put the files of ``rev`` under ``dest``; return the commit it names,
    or a description of the working tree."""
    dest.mkdir(parents=True)
    if rev == WORKING_TREE:
        for name in git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0"):
            if name and Path(name).is_file():  # a tracked file may be deleted
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(name, dest / name)
        return "working tree over " + git("rev-parse", "HEAD").decode().strip()
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", commit), check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its exit code and, when it printed one,
    its result (``correct``, ``attempted``, ``failed`` and metric values)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    record: dict = {"exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return record
    record.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
    )
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], revs: list[str], better: dict[str, str]) -> tuple[dict, list]:
    """Per revision, each metric's median and quartiles; per adjacent pair
    of revisions, each metric's wins by seed. Only correct runs count."""
    values: dict[str, dict[str, dict[int, float]]] = {rev: {} for rev in revs}
    for run in runs:
        if not run.get("correct"):
            continue
        for name, value in run["metrics"].items():
            values[run["rev"]].setdefault(name, {})[run["seed"]] = value
    summary = {
        rev: {name: quartiles(list(by_seed.values())) for name, by_seed in sorted(metrics.items())}
        for rev, metrics in values.items()
    }
    pairs = []
    for before, after in zip(revs, revs[1:]):
        wins = {}
        for name, direction in better.items():
            a, b = values[before].get(name, {}), values[after].get(name, {})
            seeds = sorted(set(a) & set(b))
            sign = 1 if direction == "higher" else -1
            wins[name] = {
                "better": direction,
                "pairs": len(seeds),
                "after_wins": sum(sign * (b[s] - a[s]) > 0 for s in seeds),
                "before_wins": sum(sign * (a[s] - b[s]) > 0 for s in seeds),
            }
        pairs.append({"before": before, "after": after, "wins": wins})
    return summary, pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="+", help="revisions, oldest first; '.' is the working tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if len(set(args.revs)) != len(args.revs):
        parser.error("each revision may be named once")

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    better = {metric["name"]: metric["better"] for metric in spec[kind]}
    work = WORK_ROOT / f"pairs-{os.getpid()}"
    revs: dict[str, dict] = {}
    try:
        for index, rev in enumerate(args.revs):
            tree = work / str(index)
            try:
                revs[rev] = {"commit": unpack(rev, tree)}
            except (subprocess.CalledProcessError, OSError) as exc:
                revs[rev] = {"error": f"cannot unpack: {exc}"}
                continue
            if not (tree / "perfbench" / "run.py").is_file():
                revs[rev]["error"] = "no perfbench/run.py in this revision"
        runnable = [rev for rev in args.revs if "error" not in revs[rev]]
        workloads = {}
        for workload in args.workload:
            runs = []
            for turn, seed in enumerate(args.seeds):
                shift = turn % max(len(runnable), 1)
                for rev in runnable[shift:] + runnable[:shift]:
                    tree = work / str(args.revs.index(rev))
                    record = run_once(tree, workload, seed, args.seconds, args.trace)
                    runs.append({"rev": rev, "seed": seed, **record})
                    print(f"{workload} seed {seed} {rev}: exit {record['exit']}", file=sys.stderr)
            summary, pairs = summarize(runs, runnable, better)
            workloads[workload] = {"runs": runs, "summary": summary, "pairs": pairs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    report = {
        "command": [Path(sys.argv[0]).as_posix(), *(sys.argv[1:] if argv is None else argv)],
        "revs": [{"rev": rev, **revs[rev]} for rev in args.revs],
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workloads": workloads,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out)
    ok = all("error" not in rev for rev in revs.values()) and all(
        run.get("correct") for w in workloads.values() for run in w["runs"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
