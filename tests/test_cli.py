"""End-to-end command-line behavior against the bundled corpus."""

from __future__ import annotations

import _thread
import itertools
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from reviewlens import pipeline
from reviewlens.cache import DiskResponseCache
from reviewlens.cli import CREDENTIAL_ENV_VAR, main
from reviewlens.errors import RateLimitedError, TransportError
from reviewlens.evaluation import REFERENCE_CATEGORY_SCORES
from reviewlens.gateway import ReplayBackend, fingerprint
from reviewlens.extraction import build_extraction_prompt
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product
from reviewlens.testing import FakeChatSession, SelectiveFailureBackend

from conftest import TESTDATA, golden

DATASET = str(TESTDATA / "dataset.json")
FIXTURES = str(TESTDATA / "fixtures")
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
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_count_flags_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, flag, value)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected a positive integer, got '{value}'" in err
        assert "Traceback" not in err

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


def run_probed(monkeypatch, tmp_path, probe, mode: str, workers: int, base_delay_ms: int) -> int:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"retry": {"base_delay_ms": base_delay_ms, "backoff_factor": 1.0}}))
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
            assert probe.peak_threads <= threads_before + 2 * workers
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

    def test_throttled_backoff_keeps_its_permit(self, tmp_path, monkeypatch, products):
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
        # While the grouping call sleeps after the 429, it holds its permit:
        # the other calls in flight use the rest, and none is mixer's.
        overlapping = [
            call for call in probe.calls if call.start < retry.start and call.end > throttled.end
        ]
        assert overlapping and all(call.product != mixer for call in overlapping)
        assert max_in_flight(overlapping) <= workers - 1

    def test_rank_priority_and_the_kept_permit(self, tmp_path, monkeypatch, products):
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

        acquired = []
        acquire = pipeline._PermitPool.acquire

        def traced_acquire(pool, rank):
            acquired.append(rank)
            return acquire(pool, rank)

        monkeypatch.setattr(pipeline, "run_product", traced_run_product)
        monkeypatch.setattr(pipeline._PermitPool, "acquire", traced_acquire)
        assert run_probed(monkeypatch, tmp_path, probe, "full", 2, base_delay_ms=200) == 0
        # Mixer took a permit for each of its two drain threads and none for
        # its grouping call: the last drain thread kept its own.
        assert acquired.count(0) == 2
        mixer_calls, serum_calls = probe.of(mixer), probe.of(serum)
        (grouping,) = [call for call in mixer_calls if call.prompt == tails[mixer]]
        assert grouping is mixer_calls[-1]
        # Serum starts in mixer's tail, in the permit mixer's first drain
        # thread to run out of reviews gave back.
        assert serum_calls[0].start < grouping.end
        # Mixer's last drain thread kept its permit for the grouping call,
        # so serum never had both permits before that call was done.
        before = [call for call in serum_calls if call.start < grouping.end]
        assert max_in_flight(before) == 1
        assert finished == list(PRODUCT_IDS)


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
        assert not (tmp_path / "out" / buds).exists() and not probe.of(buds)
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
    def test_record_then_replay_matches_golden(self, tmp_path, monkeypatch, canned_model, capsys):
        session = FakeChatSession(backend=canned_model, expected_key="test-key-123")
        monkeypatch.setattr("reviewlens.gateway._default_session", lambda: session)

        fixtures = tmp_path / "recorded"
        code = run_cli(
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--api-key", "test-key-123",
            "--mode", "full",
            "--product", "app-mixer-001",
        )
        assert code == 0
        assert "recorded" in capsys.readouterr().out
        assert list(DiskResponseCache(fixtures))
        assert session.closed

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

    def test_mode_comparison_requires_three_runs(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("report.json", lambda payload: "{not json"),
            (
                "extractions.json",
                lambda payload: {
                    "extractions": {
                        rid: [{k: v for k, v in row.items() if k != "attribute"} for row in rows]
                        for rid, rows in payload["extractions"].items()
                    }
                },
            ),
            ("manifest.json", lambda payload: [payload]),
            ("report.json", lambda payload: {**payload, "sections": payload["sections"][1:]}),
        ],
        ids=["report-not-json", "row-without-attribute", "manifest-list", "report-three-sections"],
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

    def test_nothing_requested(self, capsys):
        code = run_cli("eval")
        assert code == 1
        assert "nothing to evaluate" in capsys.readouterr().err
