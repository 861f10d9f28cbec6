#!/usr/bin/env python3
"""reviewlens benchmark: the real CLI against a fake provider on loopback.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a reviewlens checkout. Set-up generates a seeded
synthetic corpus, starts the fake chat-completions provider
(``provider.py``) in a child process, builds reference reports in-process
with ``workers=1``, pre-fills the response cache where the workload needs
it, and checks the bundled corpus against ``testdata/golden``. It is
repeated ``SETUP_REPEATS`` times and ``setup_s`` is the median.

The measurement runs in another child (``measure.py``) that calls
``reviewlens.cli.main(["run", ...])`` in a closed loop with one client and
``--workers 2``. Every number comes from outside the program: the
provider's attempt log, the process's CPU time and peak RSS, and spans the
benchmark wraps around reviewlens's public functions in traced passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Any output that
differs from its reference, or a provider attempt count that differs from
the generator's, makes the run exit non-zero. See RATIONALE.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as synth  # noqa: E402

WORK_ROOT = ".perfbench_work"
WORKERS = 2  # calls in flight: one client, --workers 2, one product at a time
SETUP_REPEATS = 5
# Three passes at least, so every provider workload has a fixed minimum of
# product-latency samples and therefore a fixed tail percentile.
MIN_PASSES = 3
API_KEY = "perfbench-dummy-key"
# Service time per call: (base + a*prompt_chars + b*response_chars) * jitter.
LATENCY = {
    "base_ms": 30.0,
    "prompt_ms_per_char": 0.002,
    "response_ms_per_char": 0.02,
    "jitter": [0.9, 1.1],
}
PROVIDER_START_TIMEOUT_S = 60
# Passes run to completion, and at least MIN_PASSES of them, so measuring
# may overrun --seconds; a faults pass takes about 16 s.
MEASURE_GRACE_S = 120
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Entry points that must see calls in traced passes of each workload, so a
# refactor cannot silently zero a layer.
COMMON_CALLS = {
    "complete_parsed", "lookup_or_call", "fingerprint", "render_prompt",
    "build_extraction_prompt", "build_comparison_prompt", "build_grouping_prompt",
    "parse_extraction_response", "parse_comparison_response", "parse_grouping_response",
    "merge_insights", "build_report", "render_report", "run_product", "normalize_key",
}
REQUIRED_CALLS = {
    "synthetic-live": COMMON_CALLS | {
        "complete_with_retry", "HttpBackend.complete", "DiskResponseCache.get", "DiskResponseCache.put",
        "build_baseline_prompt", "build_ablated_prompt", "parse_report_sections",
    },
    "synthetic-faults": COMMON_CALLS | {"complete_with_retry", "HttpBackend.complete"},
}


class BenchError(Exception):
    """A failed correctness gate or a broken benchmark environment."""


# -- set-up ---------------------------------------------------------------------


def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    return path


class Provider:
    """The fake provider's child process."""

    def __init__(self, spec_path: Path, env: dict):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "provider.py"), str(spec_path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], PROVIDER_START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.close()
            raise BenchError("fake provider did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def log(self) -> list[dict]:
        with urllib.request.urlopen(f"{self.url}/_bench/log", timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["REVIEWLENS_API_KEY"] = API_KEY
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def check_bundled_goldens(root: Path, scratch: Path) -> None:
    """The bundled corpus through ReplayBackend must reproduce every golden."""
    from reviewlens import cli

    golden = root / "testdata" / "golden"
    for mode in synth.MODES:
        out = scratch / "golden" / mode
        argv = ["run", "--dataset", str(root / "testdata" / "dataset.json"),
                "--fixtures", str(root / "testdata" / "fixtures"), "--mode", mode, "--out", str(out)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise BenchError(f"bundled corpus, mode {mode}: exit code {code}")
        for want in sorted((golden / mode).glob("*/report.*")):
            got = out / want.parent.name / want.name
            if not got.is_file() or got.read_bytes() != want.read_bytes():
                raise BenchError(f"bundled corpus: {mode}/{want.parent.name}/{want.name} differs from golden")


def build_references(corpus, workload: str, ref_dir: Path, cache_dir: Path | None) -> None:
    """Reference reports made in-process with workers=1 and the canned model
    as backend. On synthetic-live the same runs, in all three modes, fill
    the cache of the warm rerun."""
    from reviewlens.cache import DiskResponseCache
    from reviewlens.domain import ProductRecord
    from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product
    from reviewlens.structuring import ReportFormat, render_report
    from reviewlens.testing import CannedReviewModel

    faulted = workload == "synthetic-faults"
    everything = [ProductRecord.from_dict(p) for p in corpus.dataset()]
    model = CannedReviewModel.from_config(everything, corpus.canned)
    # A failed grouping call puts every key in "Other"; so does this model.
    all_other = CannedReviewModel.from_config(
        everything, {**corpus.canned, "categories": {}, "default_category": "Other"}
    )
    cache = DiskResponseCache(cache_dir) if cache_dir is not None else None
    modes = ("full",) if faulted else synth.MODES
    for mode in modes:
        config = PipelineConfig(mode=PipelineMode(mode), workers=1)
        for record in corpus.dataset(without_failed=faulted):
            product = ProductRecord.from_dict(record)
            backend = all_other if faulted and product.product_id == corpus.grouping_failure else model
            result = run_product(product, config, backend, cache=cache)
            out = ref_dir / mode / product.product_id
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_bytes(render_report(result.report, ReportFormat.JSON))
            (out / "report.md").write_bytes(render_report(result.report, ReportFormat.MARKDOWN))


class Setup:
    """Everything one measurement needs: corpus, provider, references and
    the CLI invocations of one pass."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.workload = workload
        self.corpus = corpus = synth.generate(seed)
        dataset = write_json(work / "dataset.json", corpus.dataset())
        spec = {
            "dataset": corpus.dataset(),
            "canned": corpus.canned,
            "latency": LATENCY,
            "seed": seed,
            "faults": corpus.faults if workload == "synthetic-faults" else {},
            "comparison_index": [
                [r.review_id, [[synth.normalized(n), v] for n, v in r.attributes]]
                for p in corpus.products
                for r in p.reviews
                if r.attributes
            ],
            "grouping_index": [[sorted(k), pid] for k, pid in corpus.grouping_index(workload).items()],
        }
        self.provider = Provider(write_json(work / "provider.json", spec), child_env(root))
        try:
            cache_dir = work / "warm-cache" if workload == "synthetic-live" else None
            build_references(corpus, workload, work / "ref", cache_dir)
            check_bundled_goldens(root, work)
            self.invocations = self._invocations(work, dataset, cache_dir)
        except BaseException:
            self.provider.close()
            raise

    def _invocations(self, work: Path, dataset: Path, cache_dir: Path | None) -> list[dict]:
        """One pass: the timed cold `full` run and, on synthetic-live, a cache
        user's rerun of all three modes against the cache filled in set-up."""
        corpus, workload = self.corpus, self.workload
        faulted = workload == "synthetic-faults"
        pids = [p.product_id for p in corpus.products]

        def invocation(mode: str, cache: str | None, timed: bool) -> dict:
            out = f"{{pass}}/{'cold' if timed else 'warm'}-{mode}"
            argv = ["run", "--dataset", str(dataset), "--mode", mode, "--out", out,
                    "--backend", "live", "--base-url", self.provider.url, "--workers", str(WORKERS)]
            return {
                "label": f"{workload}/{'cold' if timed else 'warm'}/{mode}",
                "argv": argv + (["--cache-dir", cache] if cache else []),
                "out": out,
                "timed": timed,
                "exit": 2 if faulted else 0,
                "products": [
                    {
                        "product": pid,
                        "ref": str(work / "ref" / mode / pid),
                        "failed_units": corpus.failed_reviews.get(pid, []) if faulted else [],
                        "all_other": faulted and pid == corpus.grouping_failure,
                    }
                    for pid in pids
                ],
            }

        if faulted:
            return [invocation("full", None, True)]
        return [invocation("full", "{pass}/cache", True)] + [
            invocation(mode, str(cache_dir), False) for mode in synth.MODES
        ]

    def close(self) -> None:
        self.provider.close()


# -- metrics ------------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0 where the layer did no work."""
    return numerator / denominator if denominator else 0.0


def tail_percentile(guaranteed_samples: int) -> float:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, taken from the sample count every run is guaranteed, so the
    percentile does not change with the number of passes that fit."""
    for pct in TAIL_LADDER:
        if guaranteed_samples * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def percentile(samples: list[float], pct: float) -> float:
    return statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]


def product_spans_ms(entries: list[dict]) -> list[float]:
    """Per product: provider's first arrival to its last send, in ms."""
    first, last = {}, {}
    for e in entries:
        p = e["product"]
        first[p] = min(first.get(p, e["arrival"]), e["arrival"])
        last[p] = max(last.get(p, e["send"]), e["send"])
    return [(last[p] - first[p]) * 1000 for p in first]


def inflight(entries: list[dict]) -> tuple[float, int]:
    """(integral of calls in flight over time in s, peak calls in flight)."""
    events = sorted([(e["arrival"], 1) for e in entries] + [(e["send"], -1) for e in entries],
                    key=lambda ev: (ev[0], ev[1]))
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return sum(e["send"] - e["arrival"] for e in entries), peak


def longest_chain_s(entries: list[dict]) -> float:
    """The longest single-product chain of provider service: its slowest
    review (extraction then comparison) followed by its grouping call."""
    review_s = defaultdict(float)
    grouping_s = defaultdict(float)
    for e in entries:
        service = e["send"] - e["arrival"]
        if e["stage"] == "grouping":
            grouping_s[e["product"]] += service
        else:
            review_s[(e["product"], e["unit"])] += service
    per_product = defaultdict(float)
    for (pid, _), seconds in review_s.items():
        per_product[pid] = max(per_product[pid], seconds)
    return max((per_product[p] + grouping_s[p] for p in per_product), default=0.0)


def grouping_gaps_ms(entries: list[dict]) -> list[float]:
    last_review, grouping = {}, {}
    for e in entries:
        p = e["product"]
        if e["stage"] == "grouping":
            grouping[p] = min(grouping.get(p, e["arrival"]), e["arrival"])
        else:
            last_review[p] = max(last_review.get(p, e["send"]), e["send"])
    return [(grouping[p] - last_review[p]) * 1000 for p in grouping if p in last_review]


def pass_wall(record: dict) -> float:
    return record["invocations"][-1]["end"] - record["invocations"][0]["start"]


def cold_run(record: dict) -> dict:
    """The pass's timed cold `full` run; the end-to-end metrics come from it."""
    return next(i for i in record["invocations"] if i["timed"])


def wall(invocation: dict) -> float:
    return invocation["end"] - invocation["start"]


def end_to_end(setup_times, passes, log_by_pass, peak_rss_kb):
    """Throughput and CPU are medians over passes, so a burst of contention
    from outside the benchmark moves them less than a total would."""
    colds = [cold_run(p) for p in passes]
    products = colds[0]["products"]
    latencies = [ms for p in passes for ms in product_spans_ms(log_by_pass[p["pass"]])]
    tail_pct = tail_percentile(products * MIN_PASSES)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "products_per_s": (statistics.median(products / wall(c) for c in colds), "1/s"),
        "product_latency_p50_ms": (statistics.median(latencies), "ms"),
        "product_latency_tail_ms": (percentile(latencies, tail_pct), "ms"),
        "cpu_ms_per_product": (statistics.median(1000 * c["cpu_s"] / products for c in colds), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    details = {"latency_samples": len(latencies), "tail_percentile": tail_pct, "passes": len(passes),
               "setup_samples": len(setup_times)}
    return metrics, details


def load_spans(path: Path) -> tuple[dict[str, list[dict]], dict[str, int]]:
    by_name = defaultdict(list)
    counts = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if "counts" in row:
                counts = row["counts"]
            else:
                by_name[row["name"]].append(row)
    return by_name, counts


def by_phase(spans: dict[str, list[dict]], invocations: list[dict]) -> dict[str, list[dict]]:
    """The spans that started inside one of the invocations."""
    windows = sorted((i["start"], i["end"]) for i in invocations)
    starts = [start for start, _ in windows]
    out = defaultdict(list)
    for name, rows in spans.items():
        for span in rows:
            k = bisect.bisect_right(starts, span["start"]) - 1
            if k >= 0 and span["start"] <= windows[k][1]:
                out[name].append(span)
    return out


def per_layer(workload, passes, log_by_pass, spans, counts, corpus):
    """Provider-side and network layers are read from the timed cold run, the
    CPU-bound layers from the warm rerun where the workload has one."""
    missing = sorted(name for name in REQUIRED_CALLS[workload] if not spans.get(name) and not counts.get(name))
    if missing:
        raise BenchError(f"traced entry points saw no calls on {workload}: {', '.join(missing)}")
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    cold_invocations = [cold_run(p) for p in traced]
    warm_invocations = [i for p in traced for i in p["invocations"] if not i["timed"]] or cold_invocations
    cold, warm = by_phase(spans, cold_invocations), by_phase(spans, warm_invocations)
    cold_runs = sum(i["products"] for i in cold_invocations)
    warm_runs = sum(i["products"] for i in warm_invocations)
    traced_log = [e for p in traced for e in log_by_pass[p["pass"]]]

    def total(phase, name, field):
        return sum(s[field] or 0 for s in phase.get(name, ()))

    def per_call_us(phase, name, field="cpu"):
        return ratio(1e6 * total(phase, name, field), len(phase.get(name, ())))

    requests = len(cold["complete_parsed"])
    attempts = len(traced_log)
    http = cold.get("HttpBackend.complete", [])
    warm_gets = warm.get("DiskResponseCache.get", [])
    builders = [n for n in spans if n.startswith("build_") and n.endswith("_prompt")]

    # Provider-side shape of the schedule, from the untraced passes.
    shares, peaks, over_floor, gaps = [], [], [], []
    for p in untraced:
        entries = log_by_pass[p["pass"]]
        busy, peak = inflight(entries)
        cold_wall = wall(cold_run(p))
        shares.append(busy / cold_wall / WORKERS)
        peaks.append(peak)
        over_floor.append(cold_wall / max(busy / WORKERS, longest_chain_s(entries)))
        gaps += grouping_gaps_ms(entries)
    all_entries = [e for p in passes for e in log_by_pass[p["pass"]]]
    all_cold_runs = sum(cold_run(p)["products"] for p in passes)
    reviews = sum(len(product.reviews) for product in corpus.products)
    reviews_attempted = reviews * sum(len(p["invocations"]) for p in passes)

    m = {
        "llm_calls_per_product": (ratio(len(all_entries), all_cold_runs), "count"),
        "prompt_chars_per_product": (ratio(sum(e["prompt_chars"] for e in all_entries), all_cold_runs), "chars"),
        "failed_unit_share": (ratio(sum(p["failed_units"] for p in passes), reviews_attempted), "ratio"),
        "gateway.attempts_per_request": (ratio(attempts, requests), "ratio"),
        "gateway.useful_attempt_ratio": (ratio(sum(1 for s in cold["complete_parsed"] if s["note"]), attempts), "ratio"),
        "gateway.backoff_wait_ms_per_product": (ratio(
            1000 * sum(s["self_wall"] - s["self_cpu"]
                       for n in ("complete_parsed", "complete_with_retry") for s in cold.get(n, ())),
            cold_runs), "ms"),
        "gateway.fingerprint_per_request": (ratio(len(spans["fingerprint"]), len(spans["complete_parsed"])), "ratio"),
        "gateway.self_cpu_us_per_request": (ratio(
            1e6 * sum(total(warm, n, "self_cpu") for n in
                      ("complete_parsed", "lookup_or_call", "complete_with_retry", "fingerprint")),
            len(warm["complete_parsed"])), "us"),
        "gateway.http.cpu_us_per_call": (per_call_us(cold, "HttpBackend.complete"), "us"),
        "gateway.http.wait_minus_service_ms_per_call": (
            ratio(1000 * sum(s["wall"] - s["cpu"] for s in http), len(http))
            - ratio(1000 * sum(e["send"] - e["arrival"] for e in traced_log), attempts), "ms"),
        "cache.hit_ratio": (ratio(sum(s["note"] for s in warm_gets), len(warm_gets)), "ratio"),
        "cache.get_us_per_call": (per_call_us(warm, "DiskResponseCache.get", "wall"), "us"),
        "cache.put_us_per_call": (per_call_us(cold, "DiskResponseCache.put", "wall"), "us"),
        "prompt.render_cpu_us_per_request": (ratio(
            1e6 * sum(total(warm, n, "cpu") for n in builders), sum(len(warm.get(n, ())) for n in builders)), "us"),
        "prompt.chars_per_request": (ratio(
            sum(total(cold, n, "note") for n in builders), sum(len(cold.get(n, ())) for n in builders)), "chars"),
        "parse.extraction_cpu_us_per_call": (per_call_us(warm, "parse_extraction_response"), "us"),
        "parse.comparison_cpu_us_per_call": (per_call_us(warm, "parse_comparison_response"), "us"),
        "parse.grouping_cpu_us_per_call": (per_call_us(warm, "parse_grouping_response"), "us"),
        "parse.report_sections_cpu_us_per_call": (per_call_us(warm, "parse_report_sections"), "us"),
        "domain.normalize_key_per_attribute": (ratio(
            counts.get("normalize_key", 0), sum(s["note"] or 0 for s in spans["parse_extraction_response"])), "ratio"),
        "pipeline.inflight_mean_share": (statistics.median(shares), "ratio"),
        "pipeline.inflight_peak": (max(peaks), "count"),
        "pipeline.wall_over_floor": (statistics.median(over_floor), "ratio"),
        "pipeline.grouping_gap_ms_p50": (statistics.median(gaps), "ms"),
        "pipeline.threads_peak": (max(p["threads_peak"] for p in traced), "count"),
        "structuring.merge_cpu_us_per_product": (ratio(1e6 * total(warm, "merge_insights", "cpu"), warm_runs), "us"),
        "structuring.build_cpu_us_per_product": (ratio(1e6 * total(warm, "build_report", "cpu"), warm_runs), "us"),
        "structuring.render_cpu_us_per_product": (ratio(1e6 * total(warm, "render_report", "cpu"), warm_runs), "us"),
        "cli.outside_products_ms_per_run": (ratio(
            1000 * (sum(map(wall, warm_invocations)) - total(warm, "run_product", "wall")),
            len(warm_invocations)), "ms"),
        "trace.overhead_share": (
            statistics.median(map(pass_wall, traced)) / statistics.median(map(pass_wall, untraced)) - 1, "ratio"),
    }
    details = {"traced_passes": len(traced), "untraced_passes": len(untraced), "spans": sum(map(len, spans.values()))}
    return m, details


# -- measurement and entry point ------------------------------------------------------


def measure(root: Path, work: Path, setup: Setup, seconds: float, trace: bool) -> dict:
    config = {
        "seconds": seconds,
        "trace": trace,
        "min_passes": MIN_PASSES,
        "provider_url": setup.provider.url,
        "work_dir": str(work / "passes"),
        "invocations": setup.invocations,
        "spans_path": str(work / "spans.jsonl"),
        "results_path": str(work / "results.json"),
    }
    config_path = write_json(work / "measure.json", config)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(config_path)],
            env=child_env(root), stdout=sys.stderr, check=True, timeout=seconds + MEASURE_GRACE_S,
        )
    except subprocess.SubprocessError as exc:
        raise BenchError(f"measurement process failed: {exc}") from exc
    return json.loads((work / "results.json").read_text(encoding="utf-8"))


def run(args: argparse.Namespace, root: Path, work: Path) -> dict:
    setup_times = []
    setup = None
    try:
        for repeat in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
            setup_dir = work / f"setup{repeat}"
            started = time.perf_counter()
            setup = Setup(root, setup_dir, args.workload, args.seed)
            setup_times.append(time.perf_counter() - started)
        results = measure(root, setup_dir, setup, args.seconds, bool(args.trace))
        log = setup.provider.log()
    finally:
        if setup is not None:
            setup.close()

    passes = results["passes"]
    for p in passes:
        for record, spec in zip(p["invocations"], setup.invocations):
            record["timed"] = spec["timed"]
            record["products"] = len(spec["products"])
    errors = [e for p in passes for e in p["errors"]]
    log_by_pass = defaultdict(list)
    for entry in log:
        log_by_pass[entry["pass"]].append(entry)
    expected = setup.corpus.expected_attempts(args.workload)
    for p in passes:
        got = defaultdict(int)
        for entry in log_by_pass[p["pass"]]:
            got[entry["product"]] += 1
        if inflight(log_by_pass[p["pass"]])[1] > WORKERS:
            errors.append({"run": f"pass {p['pass']}", "message": f"more than {WORKERS} calls in flight"})
        for pid, want in expected.items():
            if got[pid] != want:
                errors.append({"run": f"pass {p['pass']} {pid}",
                               "message": f"provider saw {got[pid]} attempts, generator expects {want}"})
    if args.trace:
        spans, counts = load_spans(setup_dir / "spans.jsonl")
        metrics, details = per_layer(args.workload, passes, log_by_pass, spans, counts, setup.corpus)
    else:
        metrics, details = end_to_end(setup_times, passes, log_by_pass, results["peak_rss_kb"])
    runs_per_pass = sum(len(i["products"]) for i in setup.invocations)
    return {
        "errors": errors,
        "details": details,
        "result": {
            "correct": not errors,
            "attempted": runs_per_pass * len(passes),
            "failed": len({e["run"] for e in errors}),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=synth.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "reviewlens" / "cli.py").is_file():
        print("error: no reviewlens sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        outcome = run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_ROOT).rmdir()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
                      "python": sys.version.split()[0], **outcome["details"]}), file=sys.stderr)
    for error in outcome["errors"]:
        print(f"error: {error['run']}: {error['message']}", file=sys.stderr)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
