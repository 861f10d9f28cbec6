"""End-to-end command-line behavior against the bundled corpus."""

from __future__ import annotations

import _thread
import collections
import itertools
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from reviewlens import inputs, pipeline
from reviewlens.cache import DiskResponseCache
from reviewlens.cli import CREDENTIAL_ENV_VAR, main
from reviewlens.errors import RateLimitedError, TransportError
from reviewlens.evaluation import REFERENCE_CATEGORY_SCORES
from reviewlens.gateway import ChatResponse, HttpBackend, ReplayBackend, fingerprint
from reviewlens.extraction import build_extraction_prompt
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product

from conftest import TESTDATA, golden
from doubles import SelectiveFailureBackend

DATASET = str(TESTDATA / "dataset.json")
FIXTURES = str(TESTDATA / "fixtures")
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PRODUCT_IDS = ("app-mixer-001", "bty-serum-002", "ele-buds-003")


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestRunReplay:
    @pytest.mark.parametrize("mode", ["full", "baseline", "ablated"])
    def test_reports_match_goldens(self, tmp_path, capsys, mode):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", mode,
            "--out", str(out),
        )
        assert code == 0
        for product_id in ("app-mixer-001", "bty-serum-002", "ele-buds-003"):
            for name in ("report.json", "report.md"):
                written = (out / product_id / name).read_bytes()
                assert written == golden(mode, product_id, name)
        stdout = capsys.readouterr().out
        assert f"app-mixer-001: mode={mode}" in stdout

    def test_bundled_config_gives_golden_bytes(self, tmp_path):
        config_path = TESTDATA / "config.json"
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--config", str(config_path),
            "--fixtures", FIXTURES,
            "--mode", "full",
            "--out", str(out),
        )
        assert code == 0
        for product_id in PRODUCT_IDS:
            for name in ("report.json", "report.md"):
                assert (out / product_id / name).read_bytes() == golden("full", product_id, name)
            manifest = json.loads((out / product_id / "manifest.json").read_text())
            assert manifest["config"] == json.loads(config_path.read_text())

    def test_manifest_and_extractions_written(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "app-mixer-001" / "manifest.json").read_text())
        assert manifest["mode"] == "full"
        assert manifest["backend"] == "replay"
        assert manifest["call_stats"]["extraction_calls"] == 8
        assert manifest["failed_units"] == []
        extractions = json.loads((out / "app-mixer-001" / "extractions.json").read_text())
        assert set(extractions["extractions"]) == {f"mix-r{i}" for i in range(1, 9)}

    def test_baseline_writes_no_extractions(self, tmp_path):
        out = tmp_path / "out"
        run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "baseline",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert not (out / "app-mixer-001" / "extractions.json").exists()

    def test_format_selection(self, tmp_path):
        out = tmp_path / "out"
        run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
            "--format", "json",
        )
        assert (out / "app-mixer-001" / "report.json").exists()
        assert not (out / "app-mixer-001" / "report.md").exists()

    def test_markdown_format_writes_no_json_report(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
            "--format", "markdown",
        )
        assert code == 0
        assert (out / "app-mixer-001" / "report.md").read_bytes() == golden("full", "app-mixer-001", "report.md")
        assert not (out / "app-mixer-001" / "report.json").exists()

    @pytest.mark.parametrize(
        "first, second, gone",
        [
            (("--mode", "full"), ("--mode", "baseline"), "extractions.json"),
            (("--format", "both"), ("--format", "json"), "report.md"),
        ],
        ids=["mode", "format"],
    )
    def test_rerun_removes_the_files_it_does_not_write(self, tmp_path, capsys, first, second, gone):
        out = tmp_path / "out"
        for flags in (first, second):
            code = run_cli(
                "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--product", "app-mixer-001",
                "--out", str(out), *flags,
            )
            assert code == 0
        product_dir = out / "app-mixer-001"
        assert not (product_dir / gone).exists()
        assert (product_dir / "manifest.json").exists() and (product_dir / "report.json").exists()
        if gone == "extractions.json":
            # The baseline run holds nothing for eval, as a clean one does.
            capsys.readouterr()
            code = run_cli(
                "eval", "--runs", str(out), "--gold", str(TESTDATA / "gold.json"), "--dataset", DATASET
            )
            assert code == 1
            assert "nothing to evaluate" in capsys.readouterr().err

    def test_worker_counts_same_bytes(self, tmp_path):
        one = tmp_path / "one"
        three = tmp_path / "three"
        for out, workers in ((one, "1"), (three, "3")):
            code = run_cli(
                "run",
                "--dataset", DATASET,
                "--fixtures", FIXTURES,
                "--mode", "full",
                "--out", str(out),
                "--workers", workers,
            )
            assert code == 0
        for product_id in ("app-mixer-001", "bty-serum-002", "ele-buds-003"):
            assert (one / product_id / "report.json").read_bytes() == (
                three / product_id / "report.json"
            ).read_bytes()


class TestRunErrors:
    def test_unknown_product(self, capsys):
        code = run_cli(
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--product", "nope-1"
        )
        assert code == 1
        assert "nope-1" in capsys.readouterr().err

    def test_replay_requires_fixtures_flag(self, capsys):
        code = run_cli("run", "--dataset", DATASET)
        assert code == 1
        assert "--fixtures" in capsys.readouterr().err

    def test_replay_requires_fixtures_dir(self, tmp_path, capsys):
        code = run_cli(
            "run", "--dataset", DATASET, "--fixtures", str(tmp_path / "missing")
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--workers"])
    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_non_positive_count_flags_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, flag, value)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected a positive integer, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_dataset_refused(self, tmp_path, capsys, kind):
        dataset = tmp_path / "dataset.json"
        if kind == "directory":
            dataset.mkdir()
        else:
            dataset.write_bytes('[{"product_id": "caf\xe9"}]'.encode("latin-1"))
        code = run_cli("run", "--dataset", str(dataset), "--fixtures", FIXTURES, "--out", str(tmp_path / "out"))
        assert code == 1
        _refused(capsys, f"{dataset}: cannot read: ")
        assert sorted(tmp_path.iterdir()) == [dataset]

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--fixtures", FIXTURES, "--cache-dir", "{file}"],
            ["run", "--backend", "live", "--api-key", "k", "--base-url", "http://127.0.0.1:9/v1", "--cache-dir", "{file}"],
            ["record-fixtures", "--api-key", "k", "--base-url", "http://127.0.0.1:9/v1", "--fixtures", "{file}"],
        ],
        ids=["run-replay", "run-live", "record-fixtures"],
    )
    def test_a_store_that_is_a_file_is_refused(self, tmp_path, monkeypatch, capsys, command):
        """A cache or fixture directory naming a regular file fails with
        one error line, before any request is sent or output written."""
        sent = []
        for backend in (ReplayBackend, HttpBackend):
            monkeypatch.setattr(backend, "complete", lambda self, request: sent.append(request))
        store = tmp_path / "store"
        store.write_text("not a directory\n")
        argv = [arg.replace("{file}", str(store)) for arg in command]
        code = run_cli(*argv, "--dataset", DATASET, "--out", str(tmp_path / "out"))
        assert code == 1
        _refused(capsys, f"response store {store} is not a directory")
        assert sent == [] and sorted(tmp_path.iterdir()) == [store]

    def test_parallel_products_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--parallel-products", "2")
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --parallel-products 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"retry": {"max_attempts": 0}},
            {"retry": {"max_attempts": None}},
            {"workers": 0},
            {"mode": "bogus"},
            {"worker": 1},
            {"retry": 3},
            {"workers": 2.9},
            {"retry": {"max_attempts": True}},
            {"extraction_model": None},
            {"extraction_temperature": 5},
            {"retry": {"retryable_errors": "transport"}},
            {"prompt_version": "v2"},
        ],
    )
    def test_invalid_config_values_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--config", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert "Traceback" not in err
        # The error names the offending key: the leaf key of a nested value.
        # A setting that was once configurable is named as an unknown key.
        key, value = next(iter(config.items()))
        while isinstance(value, dict):
            key, value = next(iter(value.items()))
        assert err.startswith(f"error: invalid config: {key} must ") or (
            "unknown" in err and f"key(s): '{key}'" in err
        ), err

    @pytest.mark.parametrize("mode, shown", [("bogus", "'bogus'"), (5, "5")])
    def test_invalid_mode_lists_the_modes(self, tmp_path, capsys, mode, shown):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": mode}), encoding="utf-8")
        code = run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--config", str(path))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: invalid config: mode must be one of 'full', 'baseline', 'ablated', got {shown}\n"
        )

    def test_empty_cache_dir_flag_means_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--product", "app-mixer-001",
            "--cache-dir", "", "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert [path.name for path in tmp_path.iterdir()] == ["out"]

    def test_live_requires_credential(self, monkeypatch, capsys):
        monkeypatch.delenv(CREDENTIAL_ENV_VAR, raising=False)
        code = run_cli("run", "--dataset", DATASET, "--backend", "live")
        assert code == 1
        assert CREDENTIAL_ENV_VAR in capsys.readouterr().err

    def test_missing_fixture_fails_unit_with_exit_2(self, tmp_path, products_by_id, capsys):
        fixtures_copy = tmp_path / "fixtures"
        shutil.copytree(TESTDATA / "fixtures", fixtures_copy)
        mixer = products_by_id["app-mixer-001"]
        review = next(r for r in mixer.reviews if r.review_id == "mix-r3")
        request = build_extraction_prompt(review, mixer.title, model="gemini-2.0-flash")
        with DiskResponseCache(fixtures_copy) as fixtures:
            fixtures.evict(fingerprint(request))

        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures_copy),
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "failed_units=['mix-r3']" in captured.out
        manifest = json.loads((out / "app-mixer-001" / "manifest.json").read_text())
        assert manifest["failed_units"] == ["mix-r3"]
        report = json.loads((out / "app-mixer-001" / "report.json").read_text())
        cited = {
            rid
            for section in report["sections"]
            for group in section["categories"]
            for insight in group["insights"]
            for rid in insight["evidence"]
        }
        assert "mix-r3" not in cited


class TestRunOutputs:
    def test_crash_keeps_finished_products_and_resumes_from_cache(self, tmp_path, monkeypatch, products_by_id):
        first_review = products_by_id["ele-buds-003"].reviews[0].text
        pending = [RuntimeError("crash")]

        def crash_once(request):
            if first_review in request.user_prompt and pending:
                return pending.pop()
            return None

        out, cache = tmp_path / "out", tmp_path / "cache"
        argv = [
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", "full",
            "--out", str(out), "--cache-dir", str(cache),
        ]
        monkeypatch.setattr(
            "reviewlens.cli.ReplayBackend",
            lambda root: SelectiveFailureBackend(ReplayBackend(root), fail_with=crash_once),
        )
        with pytest.raises(RuntimeError, match="crash"):
            run_cli(*argv)
        for product_id in PRODUCT_IDS[:2]:
            for name in ("report.json", "report.md"):
                assert (out / product_id / name).read_bytes() == golden("full", product_id, name)
        assert not (out / "ele-buds-003").exists()
        assert not [path for path in tmp_path.rglob("*") if path.name.endswith(".tmp")]
        cached = set(DiskResponseCache(cache))

        called: list[str] = []

        def record(request):
            called.append(fingerprint(request))
            return None

        monkeypatch.setattr(
            "reviewlens.cli.ReplayBackend",
            lambda root: SelectiveFailureBackend(ReplayBackend(root), fail_with=record),
        )
        assert run_cli(*argv) == 0
        for product_id in PRODUCT_IDS:
            for name in ("report.json", "report.md"):
                assert (out / product_id / name).read_bytes() == golden("full", product_id, name)
        needed = set(DiskResponseCache(cache))
        assert called and len(called) == len(set(called))
        assert set(called) == needed - cached


    @staticmethod
    def interrupt_after(calls: int):
        """A ``fail_with`` that raises KeyboardInterrupt from backend call
        ``calls + 1``, whichever thread makes it."""
        made = itertools.count(1)
        return lambda request: KeyboardInterrupt() if next(made) == calls + 1 else None

    @staticmethod
    def resume(argv, out, monkeypatch) -> list[str]:
        """Rerun ``argv``, check the golden bytes, and return the
        fingerprints the backend was called for."""
        called: list[str] = []

        def record(request):
            called.append(fingerprint(request))
            return None

        monkeypatch.setattr(
            "reviewlens.cli.ReplayBackend",
            lambda root: SelectiveFailureBackend(ReplayBackend(root), fail_with=record),
        )
        assert run_cli(*argv) == 0
        for product_id in PRODUCT_IDS:
            for name in ("report.json", "report.md"):
                assert (out / product_id / name).read_bytes() == golden("full", product_id, name)
        assert len(called) == len(set(called))
        return called

    def interrupted_run(self, tmp_path, monkeypatch, calls: int) -> tuple[list[str], Path, Path]:
        out, cache = tmp_path / "out", tmp_path / "cache"
        argv = [
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", "full",
            "--out", str(out), "--cache-dir", str(cache),
        ]
        interrupt = self.interrupt_after(calls)
        monkeypatch.setattr(
            "reviewlens.cli.ReplayBackend",
            lambda root: SelectiveFailureBackend(ReplayBackend(root), fail_with=interrupt),
        )
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
        return argv, out, cache

    @pytest.mark.parametrize("calls", [0, 9, 17, 30])
    def test_interrupt_after_k_calls_resumes_from_cache(self, tmp_path, monkeypatch, calls):
        argv, out, cache = self.interrupted_run(tmp_path, monkeypatch, calls)
        cached = set(DiskResponseCache(cache))
        called = self.resume(argv, out, monkeypatch)
        # Exactly the requests with no complete line in the log.
        assert set(called) == set(DiskResponseCache(cache)) - cached

    def test_torn_last_line_after_an_interrupt_is_reissued(self, tmp_path, monkeypatch):
        argv, out, cache = self.interrupted_run(tmp_path, monkeypatch, 10)
        cached = set(DiskResponseCache(cache))
        (segment,) = cache.glob("*.log")
        data = segment.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        torn = data[last : last + 64].decode("ascii")
        segment.write_bytes(data[: (last + len(data)) // 2])
        called = self.resume(argv, out, monkeypatch)
        assert torn in cached and torn in called
        assert set(called) == (set(DiskResponseCache(cache)) - cached) | {torn}


@dataclass
class _Call:
    product: str
    prompt: str
    start: float
    end: float = 0.0
    failed: bool = False


def prompt_owners(products, mode: str) -> tuple[dict[str, str], dict[str, str]]:
    """For a clean run of ``mode``: the product of each request's user
    prompt, and each product's last request (its grouping or report call)."""
    owners: dict[str, str] = {}
    tails: dict[str, str] = {}
    for product in products:
        prompts: list[str] = []

        def record(request):
            prompts.append(request.user_prompt)

        backend = SelectiveFailureBackend(ReplayBackend(FIXTURES), fail_with=record)
        run_product(product, PipelineConfig(mode=PipelineMode(mode)), backend)
        owners.update(dict.fromkeys(prompts, product.product_id))
        tails[product.product_id] = prompts[-1]
    return owners, tails


class ProbeBackend:
    """Replays the bundled fixtures, raising each planned error once, on
    the first request with its user prompt, after an optional per-product
    service time. Records every call and the peaks of calls in flight and
    of live threads."""

    def __init__(self, owners, faults=None, service_s=lambda product: 0.0):
        self._inner = ReplayBackend(FIXTURES)
        self._owners = owners
        self._faults = dict(faults or {})
        self._service_s = service_s
        self._lock = threading.Lock()
        self._in_flight = 0
        self.calls: list[_Call] = []
        self.peak_in_flight = 0
        self.peak_threads = 0

    def complete(self, request):
        call = _Call(self._owners[request.user_prompt], request.user_prompt, time.monotonic())
        with self._lock:
            self.calls.append(call)
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            self.peak_threads = max(self.peak_threads, threading.active_count())
            error = self._faults.pop(request.user_prompt, None)
        try:
            time.sleep(self._service_s(call.product))
            call.failed = error is not None
            if error is not None:
                raise error
            return self._inner.complete(request)
        finally:
            call.end = time.monotonic()
            with self._lock:
                self._in_flight -= 1

    def of(self, product: str) -> list[_Call]:
        return [call for call in self.calls if call.product == product]


def max_in_flight(calls) -> int:
    """The most of ``calls`` in flight at one time."""
    edges = sorted([(call.start, 1) for call in calls] + [(call.end, -1) for call in calls])
    return max(itertools.accumulate(step for _, step in edges), default=0)


class StormProbe(ProbeBackend):
    """A ``ProbeBackend`` whose first ``storm`` calls are throttled."""

    def __init__(self, owners, storm: int, service_s):
        super().__init__(owners, service_s=service_s)
        self._storm = storm

    def complete(self, request):
        with self._lock:
            if self._storm:
                self._storm -= 1
                self._faults[request.user_prompt] = RateLimitedError("storm")
        return super().complete(request)


def run_probed(monkeypatch, tmp_path, probe, mode: str, workers: int, base_delay_ms: int, **retry) -> int:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"retry": {"base_delay_ms": base_delay_ms, "backoff_factor": 1.0, **retry}}))
    monkeypatch.setattr("reviewlens.cli.ReplayBackend", lambda root: probe)
    return run_cli(
        "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", mode,
        "--workers", str(workers), "--config", str(config), "--out", str(tmp_path / f"out-{workers}"),
    )


class TestRunWideCap:
    """``--workers`` caps the calls in flight across the products of a run;
    a free permit goes to the earliest product waiting for one, so a later
    product runs in the permits the earlier one cannot use."""

    @pytest.mark.parametrize("mode", ["full", "baseline", "ablated"])
    def test_cap_holds_across_products(self, tmp_path, monkeypatch, products, mode):
        owners, tails = prompt_owners(products, mode)
        rng = random.Random(mode)
        rng_lock = threading.Lock()

        def jitter(product):
            with rng_lock:
                return rng.uniform(0, 0.002)

        for workers in (1, 2, 3, 8, 16):
            # Every product's last call fails once, so its backoff lends.
            faults = {prompt: TransportError("blip") for prompt in tails.values()}
            probe = ProbeBackend(owners, faults, jitter)
            threads_before = threading.active_count()
            assert run_probed(monkeypatch, tmp_path, probe, mode, workers, base_delay_ms=30) == 0
            assert probe.peak_in_flight <= workers
            assert probe.peak_threads <= threads_before + workers
            for product_id in PRODUCT_IDS:
                for name in ("report.json", "report.md"):
                    written = (tmp_path / f"out-{workers}" / product_id / name).read_bytes()
                    assert written == golden(mode, product_id, name)
            # The second product ran in a permit the first one gave back.
            assert probe.of(PRODUCT_IDS[1])[0].start < probe.of(PRODUCT_IDS[0])[-1].start

    def test_grouping_backoff_lends_its_permit(self, tmp_path, monkeypatch, products):
        owners, tails = prompt_owners(products, "full")
        mixer, serum = PRODUCT_IDS[:2]
        probe = ProbeBackend(
            owners,
            {tails[mixer]: TransportError("blip")},
            lambda product: 0.05 if product == serum else 0.0,
        )
        assert run_probed(monkeypatch, tmp_path, probe, "full", 2, base_delay_ms=200) == 0
        failed, retry = [call for call in probe.of(mixer) if call.prompt == tails[mixer]]
        assert failed.failed and not retry.failed
        deadline = failed.end + 0.2
        serum_calls = probe.of(serum)
        # Serum ran on both permits while the grouping call backed off.
        during = [call for call in serum_calls if failed.end < call.start < deadline]
        assert any(a.start < b.start < a.end for a, b in itertools.combinations(during, 2))
        # The grouping retry waits for at most one call issued after its
        # deadline, though serum still had calls to make.
        assert len([call for call in probe.calls if deadline <= call.start < retry.start]) <= 1
        assert serum_calls[-1].start > retry.start

    def test_nested_backoff_lends_its_permit(self, tmp_path, monkeypatch, products):
        owners, _ = prompt_owners(products, "full")
        mixer, serum = PRODUCT_IDS[:2]
        model = PipelineConfig().extraction_model
        first, second = (
            build_extraction_prompt(review, products[0].title, model=model).user_prompt
            for review in products[0].reviews[:2]
        )
        workers = 1
        probe = ProbeBackend(
            owners,
            {first: TransportError("blip"), second: TransportError("blip")},
            lambda product: 0.03 if product == serum else 0.0,
        )
        threads_before = threading.active_count()
        assert run_probed(monkeypatch, tmp_path, probe, "full", workers, base_delay_ms=200) == 0
        outer_failed, outer_retry = [call for call in probe.of(mixer) if call.prompt == first]
        failed, retry = [call for call in probe.of(mixer) if call.prompt == second]
        assert failed.failed and not retry.failed
        # mix-r2 failed while mix-r1 backed off; each retried at its own
        # deadline, and neither backoff held the one thread.
        assert outer_failed.end < failed.start < outer_retry.start < retry.start
        # Its permit went to serum for the wait.
        assert any(failed.end < call.start < retry.start for call in probe.of(serum))
        assert probe.peak_in_flight <= workers
        assert probe.peak_threads <= threads_before + workers
        for product_id in PRODUCT_IDS:
            for name in ("report.json", "report.md"):
                written = (tmp_path / f"out-{workers}" / product_id / name).read_bytes()
                assert written == golden("full", product_id, name)

    def test_throttled_backoff_lowers_the_limit(self, tmp_path, monkeypatch, products):
        owners, tails = prompt_owners(products, "full")
        mixer, serum = PRODUCT_IDS[:2]
        workers = 2
        probe = ProbeBackend(
            owners,
            {tails[mixer]: RateLimitedError("slow down")},
            lambda product: 0.05 if product == serum else 0.0,
        )
        assert run_probed(monkeypatch, tmp_path, probe, "full", workers, base_delay_ms=200) == 0
        assert len(probe.of(mixer)) == 18
        throttled, retry = [call for call in probe.of(mixer) if call.prompt == tails[mixer]]
        assert throttled.failed and not retry.failed
        # The grouping call gave its permit back for the backoff, and only
        # serum made calls in it.
        during = [call for call in probe.calls if throttled.end < call.start < retry.start]
        assert during and all(call.product == serum for call in during)
        # The 429 halved the limit: until a call succeeded, no call started
        # while max(1, workers // 2) or more were in flight.
        recovered = min(call.end for call in probe.calls if call.end > throttled.end and not call.failed)
        for call in probe.calls:
            if throttled.end < call.start < recovered:
                in_flight = [other for other in probe.calls if other.start < call.start < other.end]
                assert len(in_flight) < max(1, workers // 2)
        assert probe.peak_in_flight <= workers

    def test_429_storm_runs_one_call_at_a_time_then_recovers(self, tmp_path, monkeypatch, products):
        owners, _ = prompt_owners(products, "full")
        workers, storm = 2, 6
        probe = StormProbe(owners, storm, lambda product: 0.02)
        # More attempts than throttled calls, so no request runs out.
        assert run_probed(monkeypatch, tmp_path, probe, "full", workers, 20, max_attempts=storm + 2) == 0
        throttled = [call for call in probe.calls if call.failed]
        assert len(throttled) == storm
        first_429 = min(call.end for call in throttled)
        recovered = min(call.end for call in probe.calls if not call.failed)
        assert recovered > max(call.end for call in throttled)
        # From the first 429 until a call succeeds, calls run one at a time.
        for call in probe.calls:
            if first_429 < call.start < recovered:
                assert not [other for other in probe.calls if other.start < call.start < other.end]
        # Then the limit grows back to ``workers``, and no further.
        assert max_in_flight([call for call in probe.calls if call.start > recovered]) == workers
        assert probe.peak_in_flight <= workers
        for product_id in PRODUCT_IDS:
            for name in ("report.json", "report.md"):
                written = (tmp_path / f"out-{workers}" / product_id / name).read_bytes()
                assert written == golden("full", product_id, name)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_every_request_throttled_still_ends(self, tmp_path, monkeypatch, products, workers):
        """Each request's first attempt is a 429: the limit sits at one or
        two permits all run long, and the run still ends with the golden
        bytes."""
        owners, _ = prompt_owners(products, "full")
        probe = ProbeBackend(owners, {prompt: RateLimitedError("slow down") for prompt in owners})
        codes: list[int] = []
        runner = threading.Thread(
            target=lambda: codes.append(run_probed(monkeypatch, tmp_path, probe, "full", workers, 5)),
            daemon=True,
        )
        runner.start()
        runner.join(30)
        deadlocked = runner.is_alive()
        assert not deadlocked and codes == [0]
        assert len([call for call in probe.calls if call.failed]) == len(owners)
        assert probe.peak_in_flight <= workers
        for product_id in PRODUCT_IDS:
            for name in ("report.json", "report.md"):
                written = (tmp_path / f"out-{workers}" / product_id / name).read_bytes()
                assert written == golden("full", product_id, name)

    def test_rank_priority_in_the_first_products_tail(self, tmp_path, monkeypatch, products):
        owners, tails = prompt_owners(products, "full")
        mixer, serum = PRODUCT_IDS[:2]
        service_s = {mixer: 0.03, serum: 0.05}
        probe = ProbeBackend(owners, {}, lambda product: service_s.get(product, 0.03))
        finished = []
        inner = pipeline.run_product

        def traced_run_product(product, *args, **kwargs):
            try:
                return inner(product, *args, **kwargs)
            finally:
                finished.append(product.product_id)

        monkeypatch.setattr(pipeline, "run_product", traced_run_product)
        assert run_probed(monkeypatch, tmp_path, probe, "full", 2, base_delay_ms=200) == 0
        mixer_calls, serum_calls = probe.of(mixer), probe.of(serum)
        (grouping,) = [call for call in mixer_calls if call.prompt == tails[mixer]]
        assert grouping is mixer_calls[-1]
        # Mixer's reviews ran on both permits.
        assert max_in_flight(mixer_calls[:-1]) == 2
        # Serum starts in mixer's tail, in the permit mixer had no ready
        # request for.
        assert serum_calls[0].start < grouping.end
        # Mixer's grouping call went before serum's ready requests, so serum
        # never had both permits before that call was done.
        before = [call for call in serum_calls if call.start < grouping.end]
        assert max_in_flight(before) == 1
        assert finished == list(PRODUCT_IDS)

    def test_second_product_fills_the_permit_the_first_cannot_use(self, tmp_path, monkeypatch, products):
        """A baseline product makes one call, so at ``--workers 2`` the
        second product's call starts while the first's is in flight."""
        owners, _ = prompt_owners(products, "baseline")
        probe = ProbeBackend(owners, {}, lambda product: 0.05)
        assert run_probed(monkeypatch, tmp_path, probe, "baseline", 2, base_delay_ms=0) == 0
        (first,), (second,) = probe.of(PRODUCT_IDS[0]), probe.of(PRODUCT_IDS[1])
        assert second.start < first.end
        assert probe.peak_in_flight == 2

    def test_backoff_holds_no_thread(self, tmp_path, monkeypatch, products):
        """At ``--workers 1`` a review backing off for 200 ms leaves the one
        thread to the reviews ready meanwhile, and the run never has more
        than that thread besides the caller's."""
        owners, _ = prompt_owners(products, "full")
        model = PipelineConfig().extraction_model
        first = build_extraction_prompt(products[0].reviews[0], products[0].title, model=model).user_prompt
        probe = ProbeBackend(owners, {first: TransportError("blip")}, lambda product: 0.002)
        threads_before = threading.active_count()
        assert run_probed(monkeypatch, tmp_path, probe, "full", 1, base_delay_ms=200) == 0
        failed, retry = [call for call in probe.calls if call.prompt == first]
        during = [call for call in probe.calls if failed.end < call.start < retry.start]
        assert len([call for call in during if call.product == PRODUCT_IDS[0]]) == 2 * len(products[0].reviews) - 2
        assert probe.peak_in_flight == 1
        assert probe.peak_threads <= threads_before + 1


# `reviewlens run` whose second product waits until stdin closes, which the
# test does once it has closed its end of stdout: the closed pipe is met at
# the second line every time, not by a race.
GATED_RUN = """
import sys
from reviewlens import cli
write, written = cli._write_outputs, []
def gated(*args):
    if written:
        sys.stdin.read()
    written.append(write(*args))
cli._write_outputs = gated
sys.exit(cli.main())
"""


class TestClosedStdout:
    """A reader that leaves early (`reviewlens run ... | head -1`) ends the
    run with exit 1 and no traceback, and every product directory written
    holds its golden bytes."""

    ARGV = ("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", "full")

    @staticmethod
    def assert_written(out: Path, product_ids) -> None:
        assert sorted(path.name for path in out.iterdir()) == list(product_ids)
        for product_id in product_ids:
            for name in ("report.json", "report.md"):
                assert (out / product_id / name).read_bytes() == golden("full", product_id, name)

    def test_reader_gone_after_the_first_line(self, tmp_path):
        out = tmp_path / "out"
        child = subprocess.Popen(
            [sys.executable, "-u", "-c", GATED_RUN, *self.ARGV, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout.readline().startswith(b"app-mixer-001: mode=full calls=17")
        child.stdout.close()
        child.stdin.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err
        self.assert_written(out, PRODUCT_IDS[:2])

    def test_reader_gone_before_a_buffered_run(self, tmp_path):
        """Block-buffered, the lines meet the closed pipe when ``main``
        flushes them after the last product, and the flush at exit is quiet."""
        out, (read_end, write_end) = tmp_path / "out", os.pipe()
        os.close(read_end)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        try:
            child = subprocess.run(
                [sys.executable, "-m", "reviewlens.cli", *self.ARGV, "--out", str(out)],
                env={**env, "PYTHONPATH": str(SRC)}, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        err = child.stderr.decode()
        assert child.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err
        self.assert_written(out, PRODUCT_IDS)


class TestStopping:
    """A run that is stopping starts no product, no queued review and no
    backend call, and the stop surfaces once the calls in flight have
    returned."""

    WORKERS = 2

    def argv(self, tmp_path) -> list[str]:
        return [
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", "full",
            "--workers", str(self.WORKERS), "--out", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ]

    def resume(self, tmp_path, monkeypatch) -> None:
        """A rerun on the same cache gives the golden bytes and calls the
        backend once for each request missing from the cache."""
        cache = tmp_path / "cache"
        cached = set(DiskResponseCache(cache))
        called = TestRunOutputs.resume(self.argv(tmp_path), tmp_path / "out", monkeypatch)
        assert set(called) == set(DiskResponseCache(cache)) - cached

    @pytest.fixture
    def sigint_raises(self):
        """SIGINT raises KeyboardInterrupt for the test's duration. A process
        started as a background job of a non-interactive shell ignores
        SIGINT, and then ``_thread.interrupt_main`` does nothing."""
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        yield
        signal.signal(signal.SIGINT, previous)

    @pytest.mark.usefixtures("sigint_raises")
    @pytest.mark.parametrize("calls", [5, 25])
    def test_interrupt_main_starts_at_most_workers_calls(self, tmp_path, monkeypatch, calls):
        lock = threading.Lock()
        starts: list[float] = []
        interrupted: list[float] = []

        def interrupt_after_k(request):
            with lock:
                starts.append(time.monotonic())
                if len(starts) == calls + 1:
                    interrupted.append(starts[-1])
                    _thread.interrupt_main()
            # Twice as long as the caller may take to see the interrupt.
            time.sleep(2 * pipeline._WAKE_S)
            return None

        monkeypatch.setattr(
            "reviewlens.cli.ReplayBackend",
            lambda root: SelectiveFailureBackend(ReplayBackend(root), fail_with=interrupt_after_k),
        )
        with pytest.raises(KeyboardInterrupt):
            run_cli(*self.argv(tmp_path))
        (at,) = interrupted
        assert len([start for start in starts if start > at]) <= self.WORKERS
        self.resume(tmp_path, monkeypatch)

    def test_error_in_a_later_product_lets_the_earlier_one_finish(self, tmp_path, monkeypatch, products):
        owners, tails = prompt_owners(products, "full")
        mixer, serum, buds = PRODUCT_IDS
        probe = ProbeBackend(
            owners, {tails[mixer]: TransportError("blip"), tails[serum]: RuntimeError("crash")}
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retry": {"base_delay_ms": 200, "backoff_factor": 1.0}}))
        started = []
        inner = pipeline.run_product

        def traced_run_product(product, *args, **kwargs):
            started.append(product.product_id)
            return inner(product, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_product", traced_run_product)
        monkeypatch.setattr("reviewlens.cli.ReplayBackend", lambda root: probe)
        with pytest.raises(RuntimeError, match="crash"):
            run_cli(*self.argv(tmp_path), "--config", str(config))
        assert started == [mixer, serum]
        (crash,) = [call for call in probe.of(serum) if call.failed]
        retry = probe.of(mixer)[-1]
        # Serum crashed while mixer's grouping call was backing off.
        assert crash.end < retry.start and not retry.failed
        for name in ("report.json", "report.md"):
            assert (tmp_path / "out" / mixer / name).read_bytes() == golden("full", mixer, name)
        assert not (tmp_path / "out" / serum).exists()
        # Buds may start in the permit serum's last reviews leave free, but
        # starts at most the one call a permit may have been taken for
        # after serum crashed.
        assert not (tmp_path / "out" / buds).exists()
        assert len([call for call in probe.of(buds) if call.start > crash.end]) <= self.WORKERS - 1
        self.resume(tmp_path, monkeypatch)

    def test_error_in_the_earlier_product_stops_the_later_one(self, tmp_path, monkeypatch, products):
        owners, tails = prompt_owners(products, "full")
        mixer, serum, buds = PRODUCT_IDS
        probe = ProbeBackend(
            owners,
            {tails[mixer]: RuntimeError("crash")},
            lambda product: 0.03 if product == mixer else 0.05,
        )
        monkeypatch.setattr("reviewlens.cli.ReplayBackend", lambda root: probe)
        with pytest.raises(RuntimeError, match="crash"):
            run_cli(*self.argv(tmp_path))
        (crash,) = [call for call in probe.calls if call.failed]
        serum_calls = probe.of(serum)
        # Serum was in progress when mixer's grouping call crashed, and
        # started at most one call after that: the one permit serum held
        # may have been between two calls.
        assert serum_calls and serum_calls[0].start < crash.end
        assert len([call for call in probe.calls if call.start > crash.end]) <= self.WORKERS - 1
        assert len(serum_calls) < 14 and not probe.of(buds)
        assert not any((tmp_path / "out" / product_id).exists() for product_id in PRODUCT_IDS)
        self.resume(tmp_path, monkeypatch)


class TestRecordFixtures:
    def test_record_then_replay_matches_golden(self, tmp_path, serve, canned_model, capsys):
        server = serve(backend=canned_model, key="test-key-123")

        fixtures = tmp_path / "recorded"
        code = run_cli(
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--api-key", "test-key-123",
            "--base-url", server.url,
            "--mode", "full",
            "--product", "app-mixer-001",
        )
        assert code == 0
        assert "recorded" in capsys.readouterr().out
        assert list(DiskResponseCache(fixtures))
        assert server.connections >= 1 and server.all_closed()

        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "app-mixer-001" / "report.json").read_bytes() == golden(
            "full", "app-mixer-001", "report.json"
        )

    def test_record_reports_the_responses_the_directory_holds(self, tmp_path, serve, canned_model, capsys):
        # bud-r1 and bud-r8 send one byte-identical comparison request. The
        # fixtures are the run's cache, so it reaches the provider once.
        server = serve(backend=canned_model, key="test-key-123")
        fixtures = tmp_path / "recorded"
        code = run_cli(
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--api-key", "test-key-123",
            "--base-url", server.url,
            "--mode", "full",
            "--product", "ele-buds-003",
        )
        assert code == 0
        assert len(server.arrivals) == 18
        assert len({fingerprint(arrival.request) for arrival in server.arrivals}) == 18
        assert len(list(DiskResponseCache(fixtures))) == 18
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"recorded into {fixtures}, which holds 18 fixture responses"
        )

    def test_a_rerun_asks_only_for_the_answers_the_fixtures_lack(
        self, tmp_path, serve, canned_model, capsys
    ):
        # The first provider answers 5 requests, then HTTP 500 to every
        # request and retry after them; with no backoff the run ends quickly.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retry": {"base_delay_ms": 0}}), encoding="utf-8")
        fixtures = tmp_path / "recorded"
        argv = [
            "record-fixtures",
            "--dataset", DATASET,
            "--config", str(config),
            "--fixtures", str(fixtures),
            "--api-key", "test-key-123",
            "--mode", "full",
            "--product", "app-mixer-001",
        ]
        failing = serve(["ok"] * 5 + [(500, b"{}")] * 60, backend=canned_model, key="test-key-123")
        assert run_cli(*argv, "--base-url", failing.url) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"recorded into {fixtures}, which holds 5 fixture responses"
        )
        with DiskResponseCache(fixtures) as store:
            held = set(store)
        assert len(held) == 5

        healthy = serve(backend=canned_model, key="test-key-123")
        assert run_cli(*argv, "--base-url", healthy.url) == 0
        asked = [fingerprint(arrival.request) for arrival in healthy.arrivals]
        with DiskResponseCache(fixtures) as store:
            recorded = set(store)
        assert len(recorded) == 17
        assert sorted(asked) == sorted(recorded - held)

        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 0
        for name in ("report.json", "report.md"):
            assert (out / "app-mixer-001" / name).read_bytes() == golden("full", "app-mixer-001", name)

    def test_a_request_that_never_parsed_leaves_no_fixture(
        self, tmp_path, serve, canned_model, products_by_id, capsys
    ):
        # Every answer to the ablated report call is malformed. The recording
        # ends with an empty report, and the cache evicted each answer, so a
        # replay finds no fixture for the call and fails every review.
        class MalformedReports:
            def complete(self, request):
                if request.model == "report-model":
                    return ChatResponse(text="not a report", model=request.model)
                return canned_model.complete(request)

        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"comparison_model": "report-model", "retry": {"base_delay_ms": 0}}),
            encoding="utf-8",
        )
        server = serve(backend=MalformedReports(), key="test-key-123")
        fixtures = tmp_path / "recorded"
        argv = ["--dataset", DATASET, "--config", str(config), "--mode", "ablated", "--product", "app-mixer-001"]
        code = run_cli(
            "record-fixtures", *argv,
            "--fixtures", str(fixtures),
            "--api-key", "test-key-123",
            "--base-url", server.url,
        )
        assert code == 0
        assert len(server.arrivals) == 8 + 3  # the extractions, and the report call's 3 attempts
        captured = capsys.readouterr()
        assert "emitting empty report" in captured.err
        assert captured.out.splitlines()[-1] == f"recorded into {fixtures}, which holds 8 fixture responses"

        assert run_cli("run", *argv, "--fixtures", str(fixtures)) == 2
        captured = capsys.readouterr()
        review_ids = list(products_by_id["app-mixer-001"].review_ids)
        assert f"failed_units={review_ids}" in captured.out
        assert "direct report call failed permanently: no recorded response" in captured.err

    def test_record_requires_credential(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv(CREDENTIAL_ENV_VAR, raising=False)
        code = run_cli(
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(tmp_path / "f"),
        )
        assert code == 1
        assert CREDENTIAL_ENV_VAR in capsys.readouterr().err


@pytest.fixture()
def run_dirs(tmp_path):
    """Replay all three modes over the corpus into separate run directories."""
    dirs = {}
    for mode in ("full", "baseline", "ablated"):
        out = tmp_path / mode
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", mode,
            "--out", str(out),
        )
        assert code == 0
        dirs[mode] = out
    return dirs


class TestEval:
    def test_scores_table_computes_f1(self, tmp_path, capsys):
        rows = [
            {"category": category, "precision": precision, "recall": recall}
            for category, precision, recall, _ in REFERENCE_CATEGORY_SCORES
        ]
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps(rows))
        code = run_cli("eval", "--scores", str(scores))
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["Category", "Precision", "Recall", "F1"]
        cell = {line.split()[0]: line.split()[-1] for line in lines[2:] if line.strip()}
        assert cell["Appliances"] == "0.55"
        # Computed honestly from its own precision and recall columns.
        assert any("0.67" in line and "0.56" in line for line in lines)

    def test_scores_rows_object_prints_the_same_table(self, tmp_path, capsys):
        rows = json.loads((TESTS / "eval_scores.json").read_text(encoding="utf-8"))
        tables = []
        for name, payload in (("array.json", rows), ("object.json", {"rows": rows})):
            path = tmp_path / name
            path.write_text(json.dumps(payload), encoding="utf-8")
            assert run_cli("eval", "--scores", str(path)) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] and "Precision" in tables[0]

    def test_gold_pooled_metrics(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]),
            "--gold", str(TESTDATA / "gold.json"),
            "--dataset", DATASET,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Attribute selection" in out
        assert "mode=full" in out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if line and line.split()[0] in {"Appliances", "Beauty", "Electronics"}
        }
        assert rows["Appliances"][-1] == "0.86"
        assert rows["Beauty"][-1] == "0.94"
        assert rows["Electronics"][-1] == "0.90"

    def test_gold_and_dataset_read_once_for_every_run(self, run_dirs, monkeypatch, capsys):
        reads: collections.Counter = collections.Counter()
        text = inputs._text

        def counted_text(path):
            reads[Path(path).name] += 1
            return text(path)

        monkeypatch.setattr(inputs, "_text", counted_text)
        code = run_cli(
            "eval",
            "--runs", *(str(run_dirs[mode]) for mode in ("full", "baseline", "ablated")),
            "--gold", str(TESTDATA / "gold.json"),
            "--dataset", DATASET,
        )
        assert code == 0
        # The baseline run has no extractions, so it has no table.
        assert capsys.readouterr().out.count("Attribute selection") == 2
        assert (reads["gold.json"], reads["dataset.json"]) == (1, 1)

    def test_gold_requires_runs(self, capsys):
        code = run_cli("eval", "--gold", str(TESTDATA / "gold.json"))
        assert code == 1

    def test_annotation_tally(self, capsys):
        code = run_cli("eval", "--annotations", str(TESTDATA / "annotations.jsonl"))
        assert code == 0
        out = capsys.readouterr().out
        assert "Error tallies:" in out
        assert any(
            "omitted_attribute" in line and line.rstrip().endswith("2")
            for line in out.splitlines()
        )

    def test_mode_comparison(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]), str(run_dirs["baseline"]), str(run_dirs["ablated"]),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
            "--product", "app-mixer-001",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Mode comparison for app-mixer-001:" in out
        retention = next(line for line in out.splitlines() if "detail_retention" in line)
        assert retention.split()[-3:] == ["0", "2", "1"]

    def test_mode_comparison_picks_the_one_shared_product(self, run_dirs, capsys):
        """Without --product, the one product every run dir holds is compared."""
        argv = ["eval", "--runs", *(str(run_dirs[mode]) for mode in ("full", "baseline", "ablated"))]
        argv += ["--criteria", str(TESTDATA / "criteria.jsonl")]
        assert run_cli(*argv, "--product", "app-mixer-001") == 0
        chosen = capsys.readouterr().out
        for product_id in ("bty-serum-002", "ele-buds-003"):
            shutil.rmtree(run_dirs["full"] / product_id)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == chosen
        assert "Mode comparison for app-mixer-001:" in chosen

    def test_mode_comparison_requires_three_runs(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "modes, product, drop, message",
        [
            (("full", "full", "ablated"), "app-mixer-001", None,
             "mode comparison needs one run dir per mode; missing ['baseline']"),
            (("full", "baseline", "ablated"), None, None, "pass --product to choose among shared products"),
            (("full", "baseline", "ablated"), "app-mixer-001", "full/app-mixer-001",
             "product 'app-mixer-001' is not present in every run dir"),
            (("full", "baseline", "ablated"), "app-mixer-001", "baseline/app-mixer-001/report.json",
             "baseline run for app-mixer-001 lacks report.json"),
            (("full", "baseline", "ablated"), "app-mixer-001", "full",
             "run directory {root}/full does not exist"),
            (("full", "baseline", "ablated"), "app-mixer-001", "full/*",
             "run directory {root}/full holds no product manifests"),
        ],
        ids=[
            "a-mode-missing", "no-product-among-several", "product-not-in-every-run", "report-missing",
            "run-dir-missing", "run-dir-empty",
        ],
    )
    def test_mode_comparison_refusals(self, run_dirs, capsys, modes, product, drop, message):
        root = run_dirs["full"].parent
        for dropped in root.glob(drop) if drop else ():
            if dropped.is_dir():
                shutil.rmtree(dropped)
            else:
                dropped.unlink()
        argv = ["eval", "--runs", *(str(run_dirs[mode]) for mode in modes)]
        argv += ["--criteria", str(TESTDATA / "criteria.jsonl")]
        code = run_cli(*argv, *(["--product", product] if product else []))
        assert code == 1
        _refused(capsys, message.format(root=root))

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            (
                "extractions.json",
                lambda payload: {
                    "extractions": {
                        rid: [{k: v for k, v in row.items() if k != "attribute"} for row in rows]
                        for rid, rows in payload["extractions"].items()
                    }
                },
            ),
            ("extractions.json", lambda payload: "{not json"),
            ("manifest.json", lambda payload: [payload]),
            ("manifest.json", lambda payload: "{not json"),
            ("manifest.json", lambda payload: {k: v for k, v in payload.items() if k != "product_id"}),
            ("manifest.json", lambda payload: {**payload, "product_id": 7}),
            ("manifest.json", lambda payload: {**payload, "mode": "turbo"}),
        ],
        ids=[
            "row-without-attribute", "extractions-not-json", "manifest-list", "manifest-not-json",
            "manifest-without-product", "manifest-product-not-string", "manifest-unknown-mode",
        ],
    )
    def test_malformed_run_file_names_it(self, run_dirs, capsys, name, corrupt):
        path = run_dirs["full"] / "app-mixer-001" / name
        corrupted = corrupt(json.loads(path.read_text()))
        path.write_text(corrupted if isinstance(corrupted, str) else json.dumps(corrupted))
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]), str(run_dirs["baseline"]), str(run_dirs["ablated"]),
            "--gold", str(TESTDATA / "gold.json"),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
            "--product", "app-mixer-001",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_reports_are_not_read(self, run_dirs, capsys):
        """Scores come from the manifests, extractions and annotations: a
        report.json must exist for --criteria, but it is never opened."""
        argv = ["eval", "--runs", *(str(run_dirs[mode]) for mode in ("full", "baseline", "ablated"))]
        argv += ["--gold", str(TESTDATA / "gold.json"), "--criteria", str(TESTDATA / "criteria.jsonl")]
        argv += ["--product", "app-mixer-001"]
        assert run_cli(*argv) == 0
        scored = capsys.readouterr().out
        reports = list(run_dirs["full"].parent.glob("*/*/report.json"))
        assert len(reports) == 9
        for report in reports:
            report.write_text("{not json")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == scored

    def test_report_of_another_product_refused(self, run_dirs, capsys):
        path = run_dirs["baseline"] / "app-mixer-001" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "product_id": "bty-serum-002"}))
        capsys.readouterr()
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]), str(run_dirs["baseline"]), str(run_dirs["ablated"]),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
            "--product", "app-mixer-001",
        )
        assert code == 1
        _refused(capsys, f"{path}: product_id: 'bty-serum-002' is not its directory's name 'app-mixer-001'")

    def test_a_run_directory_of_two_modes_is_refused(self, tmp_path, capsys):
        """A directory rerun in another mode for one product is not scored
        under either mode."""
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", "full", "--out", str(out)) == 0
        assert run_cli(
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", "ablated",
            "--product", "app-mixer-001", "--out", str(out),
        ) == 0
        capsys.readouterr()
        code = run_cli("eval", "--runs", str(out), "--gold", str(TESTDATA / "gold.json"), "--dataset", DATASET)
        assert code == 1
        _refused(capsys, f"run directory {out} mixes modes: ablated, full")

    def test_nothing_requested(self, capsys):
        code = run_cli("eval")
        assert code == 1
        assert "nothing to evaluate" in capsys.readouterr().err

    def test_transcript_is_pinned(self, tmp_path, monkeypatch, capsys):
        # Relative run directories keep temporary paths out of the output.
        monkeypatch.chdir(tmp_path)
        for mode in ("full", "baseline", "ablated"):
            assert run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--mode", mode, "--out", mode) == 0
        capsys.readouterr()
        code = run_cli(
            "eval",
            "--runs", "full", "baseline", "ablated",
            "--gold", str(TESTDATA / "gold.json"),
            "--dataset", DATASET,
            "--annotations", str(TESTDATA / "annotations.jsonl"),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
            "--product", "app-mixer-001",
            "--scores", str(TESTS / "eval_scores.json"),
        )
        assert code == 0
        assert capsys.readouterr().out == (TESTS / "eval_transcript.txt").read_text(encoding="utf-8")


def _refused(capsys, where: str) -> None:
    """The CLI exited 1 with one error line naming ``where``: a file and a
    JSON path in it."""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def _dataset_with(tmp_path: Path, mutate) -> Path:
    """The bundled dataset, mutated, in ``tmp_path``; "{tmp}" in it becomes
    ``tmp_path``."""
    dataset = json.loads((TESTDATA / "dataset.json").read_text(encoding="utf-8"))
    mutate(dataset)
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(dataset).replace("{tmp}", str(tmp_path)), encoding="utf-8")
    return path


def _set(*steps):
    """A mutation setting the value at ``steps[:-1]`` to ``steps[-1]``."""

    def mutate(document):
        *path, key, value = steps
        for step in path:
            document = document[step]
        document[key] = value

    return mutate


class TestRefusedInputs:
    """Each hostile input exits 1 naming its file and JSON path. It writes
    nothing, under --out or anywhere else, and no request reaches the
    provider."""

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (_set(0, "product_id", "../evil"), "products[0]: product_id '../evil'"),
            (_set(0, "product_id", "{tmp}/evil"), "products[0]: product_id '/"),
            (lambda d: d.append(dict(d[0])), "products[3]: duplicate product_id 'app-mixer-001'"),
            (_set(0, "reviews", 2, "text", None), "products[0].reviews[2].text must"),
            (_set(1, "seller_description", ["a", "b"]), "products[1].seller_description must"),
            (_set(0, "reviews", 1, "rating", True), "products[0].reviews[1].rating must"),
            (_set(2, "reviews", 0, "review_id", 7), "products[2].reviews[0].review_id must"),
            (_set(0, "reviews", "abc"), "products[0].reviews must be a list"),
            (_set(1, "not a product"), "products[1] must be an object"),
        ],
        ids=[
            "id-leaves-out", "id-absolute", "listed-twice", "text-null", "description-list",
            "rating-bool", "review-id-int", "reviews-string", "product-not-object",
        ],
    )
    def test_dataset_refused_before_any_effect(self, tmp_path, serve, canned_model, capsys, mutate, where):
        server = serve(backend=canned_model, key="test-key-123")
        work = tmp_path / "work"
        work.mkdir()
        dataset = _dataset_with(tmp_path, mutate)
        code = run_cli(
            "run",
            "--dataset", str(dataset),
            "--backend", "live",
            "--base-url", server.url,
            "--api-key", "test-key-123",
            "--cache-dir", str(work / "cache"),
            "--out", str(work / "out"),
        )
        assert code == 1
        _refused(capsys, f"{dataset}: {where}")
        assert server.arrivals == [] and server.connections == 0
        assert sorted(tmp_path.rglob("*")) == [dataset, work]

    def test_record_fixtures_refuses_before_creating_its_directory(self, tmp_path, serve, canned_model, capsys):
        server = serve(backend=canned_model, key="test-key-123")
        dataset = _dataset_with(tmp_path, _set(0, "product_id", "../evil"))
        code = run_cli(
            "record-fixtures",
            "--dataset", str(dataset),
            "--fixtures", str(tmp_path / "fixtures"),
            "--api-key", "test-key-123",
            "--base-url", server.url,
        )
        assert code == 1
        _refused(capsys, f"{dataset}: products[0]: ")
        assert server.arrivals == []
        assert sorted(tmp_path.iterdir()) == [dataset]

    def test_record_fixtures_refuses_a_cache(self, tmp_path, serve, canned_model, capsys):
        # The fixtures are the recording's one response store; a cache_dir
        # would name a second.
        server = serve(backend=canned_model, key="test-key-123")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cache_dir": str(tmp_path / "cache")}), encoding="utf-8")
        argv = [
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(tmp_path / "fixtures"),
            "--api-key", "test-key-123",
            "--base-url", server.url,
        ]
        assert run_cli(*argv, "--config", str(config)) == 1
        _refused(capsys, "record-fixtures records every answer and takes no cache_dir")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--cache-dir", str(tmp_path / "cache"))
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
        assert server.arrivals == [] and server.connections == 0
        assert sorted(tmp_path.iterdir()) == [config]

    def test_retry_that_would_wait_past_an_hour_is_refused(self, tmp_path, serve, canned_model, capsys):
        # The second retry would be due in 1e200 ms: the run would never end.
        server = serve(backend=canned_model, key="test-key-123")
        config = tmp_path / "config.json"
        retry = {"backoff_factor": 1e200, "base_delay_ms": 1, "max_attempts": 4}
        config.write_text(json.dumps({"retry": retry}), encoding="utf-8")
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--product", "app-mixer-001",
            "--backend", "live",
            "--base-url", server.url,
            "--api-key", "test-key-123",
            "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        _refused(capsys, "invalid config: retry: its backoffs add up to more than 3600000 ms")
        assert server.arrivals == [] and server.connections == 0
        assert sorted(tmp_path.iterdir()) == [config]

    def test_retry_with_more_attempts_than_the_bound_is_refused(self, tmp_path, serve, canned_model, capsys):
        # Every delay is 0, so only the attempt count could keep the run going.
        server = serve(backend=canned_model, key="test-key-123")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retry": {"max_attempts": 1000000000, "base_delay_ms": 0}}), encoding="utf-8")
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--product", "app-mixer-001",
            "--backend", "live",
            "--base-url", server.url,
            "--api-key", "test-key-123",
            "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        _refused(capsys, "invalid config: retry: max_attempts must be at most 100")
        assert server.arrivals == [] and server.connections == 0
        assert sorted(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "row, where",
        [
            ({"precision": "0.5"}, "rows[4].precision must be a number"),
            ({"category": True}, "rows[4].category must be a non-empty string"),
            ({"precision": 2}, "rows[4].precision must be a finite number within [0.0, 1.0]"),
            ({"recall": -0.1}, "rows[4].recall must be a finite number within [0.0, 1.0]"),
            ({"precision": math.nan}, "rows[4].precision must be a finite number within [0.0, 1.0]"),
        ],
        ids=["precision-string", "category-bool", "precision-2", "recall-negative", "precision-nan"],
    )
    def test_scores_refused(self, tmp_path, capsys, row, where):
        rows = json.loads((TESTS / "eval_scores.json").read_text(encoding="utf-8"))
        rows[4].update(row)
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps(rows), encoding="utf-8")
        assert run_cli("eval", "--scores", str(scores)) == 1
        _refused(capsys, f"{scores}: {where}")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("attribute", ["  ", "-_-"], ids=["blank", "normalizes-to-empty"])
    def test_gold_attribute_without_a_key_refused(self, tmp_path, run_dirs, capsys, attribute):
        gold = json.loads((TESTDATA / "gold.json").read_text(encoding="utf-8"))
        gold["products"][1]["reviews"][2]["gold"][0]["attribute"] = attribute
        path = tmp_path / "gold.json"
        path.write_text(json.dumps(gold), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("eval", "--runs", str(run_dirs["full"]), "--gold", str(path)) == 1
        _refused(capsys, f"{path}: products[1].reviews[2].gold[0].attribute")

    def test_annotation_without_product_refused(self, tmp_path, capsys):
        lines = (TESTDATA / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        lines[2] = json.dumps({**row, "product_id": None})
        path = tmp_path / "annotations.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("eval", "--annotations", str(path)) == 1
        _refused(capsys, f"{path}:3: product_id must be a non-empty string, got None")
