"""The measured process: runs ``reviewlens.cli.main`` passes in a closed loop.

    python3 perfbench/measure.py CONFIG_JSON

``run.py`` does all set-up in its own process and starts this one only to
measure, so CPU time, peak RSS and thread counts here belong to reviewlens
alone. A pass is the workload's list of CLI invocations, run one after the
other. Passes repeat until ``seconds`` have elapsed and at least
``min_passes`` have run. With tracing on, passes alternate untraced and
traced, so the tracing overhead can be read from the pass walls.

After each pass, outside the timed region, the outputs are checked against
the set-up references and removed. The results (one record per pass) and
the spans of the traced passes are written to the paths in the config.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import threading
import time
import urllib.request
from pathlib import Path

from tracing import Tracer

THREAD_SAMPLE_INTERVAL_S = 0.002


class ThreadSampler:
    """Peak live thread count, sampled from a thread of its own."""

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(THREAD_SAMPLE_INTERVAL_S):
            self.peak = max(self.peak, threading.active_count() - 1)

    def __enter__(self) -> "ThreadSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def begin_pass(provider_url: str, pass_id: int) -> None:
    request = urllib.request.Request(f"{provider_url}/_bench/begin?pass={pass_id}", data=b"")
    with urllib.request.urlopen(request, timeout=10) as response:
        response.read()


def run_pass(main, invocations: list[dict], pass_dir: Path) -> list[dict]:
    records = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for invocation in invocations:
            argv = [arg.replace("{pass}", str(pass_dir)) for arg in invocation["argv"]]
            cpu_start, start = time.process_time(), time.monotonic()
            code = main(argv)
            end, cpu_end = time.monotonic(), time.process_time()
            records.append(
                {"start": start, "end": end, "cpu_s": cpu_end - cpu_start, "exit": code}
            )
    return records


def check_pass(invocations: list[dict], pass_dir: Path, records: list[dict]) -> tuple[list[dict], int]:
    """Compare every output of a pass with the set-up references. Returns the
    errors, each naming its product run, and the failed units listed in the
    manifests."""
    errors = []
    failed_units = 0
    for invocation, record in zip(invocations, records):
        out_dir = Path(invocation["out"].replace("{pass}", str(pass_dir)))
        for expected in invocation["products"]:
            run = f"{invocation['label']}/{expected['product']}"

            def fail(message: str) -> None:
                errors.append({"run": run, "message": message})

            if record["exit"] != invocation["exit"]:
                fail(f"exit code {record['exit']}, expected {invocation['exit']}")
            product_dir = out_dir / expected["product"]
            for name in ("report.json", "report.md"):
                got = product_dir / name
                want = Path(expected["ref"]) / name
                if not got.is_file() or got.read_bytes() != want.read_bytes():
                    fail(f"{name} differs from the reference")
            try:
                manifest = json.loads((product_dir / "manifest.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                fail(f"unreadable manifest: {exc}")
                continue
            failed_units += len(manifest.get("failed_units", ()))
            if manifest.get("failed_units") != expected["failed_units"]:
                fail(f"failed_units {manifest.get('failed_units')} != {expected['failed_units']}")
            if expected["all_other"]:
                report = json.loads((product_dir / "report.json").read_text(encoding="utf-8"))
                labels = {g["category"] for s in report["sections"] for g in s["categories"]}
                if labels != {"Other"}:
                    fail(f"categories {sorted(labels)} after a failed grouping call")
    return errors, failed_units


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    from reviewlens import cli

    invocations = config["invocations"]
    work = Path(config["work_dir"])
    tracer = Tracer()
    passes = []
    started = time.monotonic()
    while len(passes) < config["min_passes"] or time.monotonic() - started < config["seconds"]:
        pass_id = len(passes)
        pass_dir = work / f"pass{pass_id:03d}"
        traced = config["trace"] and pass_id % 2 == 1
        begin_pass(config["provider_url"], pass_id)
        threads_peak = 0
        if traced:
            tracer.install()
            try:
                with ThreadSampler() as sampler:
                    records = run_pass(cli.main, invocations, pass_dir)
            finally:
                tracer.uninstall()
            threads_peak = sampler.peak
        else:
            records = run_pass(cli.main, invocations, pass_dir)
        errors, failed_units = check_pass(invocations, pass_dir, records)
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append({
            "pass": pass_id,
            "traced": traced,
            "invocations": records,
            "threads_peak": threads_peak,
            "failed_units": failed_units,
            "errors": [{**e, "run": f"pass {pass_id} {e['run']}"} for e in errors],
        })
    if config["trace"]:
        tracer.dump(config["spans_path"])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(config["results_path"]).write_text(
        json.dumps({"passes": passes, "peak_rss_kb": peak_rss_kb}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
