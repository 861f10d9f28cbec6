"""Orchestration: call accounting, caching, concurrency, degraded modes."""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.cache import DiskResponseCache
from reviewlens.comparison import build_comparison_prompt
from reviewlens.domain import ProductRecord
from reviewlens.errors import RateLimitedError, TransportError
from reviewlens.extraction import build_extraction_prompt
from reviewlens.gateway import ChatResponse, ReplayBackend, RetryPolicy, fingerprint
from reviewlens.pipeline import (
    PipelineConfig,
    PipelineMode,
    _Scheduler,
    build_baseline_prompt,
    build_run_manifest,
    run_product,
    run_products,
)
from reviewlens.structuring import ReportFormat, render_report
from reviewlens.testing import CannedReviewModel

from conftest import TESTDATA, golden
from doubles import CountingBackend, JitterBackend, ScriptedBackend, SelectiveFailureBackend

MIX_R3_TEXT = "Heavier than I expected at about 12 pounds"
GROUPING_MARKER = "Attribute names (JSON):"
ABLATED_MARKER = "Extracted attributes (JSON, each with the review id it came from):"


def config_for(mode: PipelineMode, **overrides) -> PipelineConfig:
    base = dict(
        mode=mode,
        workers=4,
        retry=RetryPolicy(max_attempts=3, base_delay_ms=0, backoff_factor=1.0),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def fresh_replay() -> CountingBackend:
    return CountingBackend(ReplayBackend(TESTDATA / "fixtures"))


def fail_mix_r3(request):
    if MIX_R3_TEXT in request.user_prompt:
        return TransportError("injected outage")
    return None


def assert_attempt_identity(backend, stats):
    assert backend.calls == stats.total_calls - stats.cache_hits + stats.retries


class TestCallAccounting:
    def test_full_mode_mixer(self, products_by_id):
        backend = fresh_replay()
        result = run_product(products_by_id["app-mixer-001"], config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ()
        stats = result.call_stats
        assert backend.calls == 17
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (8, 8, 1)
        assert stats.cache_hits == 0

    def test_full_mode_skips_comparison_for_empty_extraction(self, products_by_id):
        backend = fresh_replay()
        result = run_product(products_by_id["bty-serum-002"], config_for(PipelineMode.FULL), backend)
        stats = result.call_stats
        assert backend.calls == 14
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (7, 6, 1)
        assert "ser-r5" in result.extractions
        assert result.extractions["ser-r5"] == ()

    def test_full_mode_buds(self, products_by_id):
        backend = fresh_replay()
        result = run_product(products_by_id["ele-buds-003"], config_for(PipelineMode.FULL), backend)
        assert backend.calls == 19
        assert result.call_stats.extraction_calls == 9

    def test_ablated_mode(self, products_by_id):
        backend = fresh_replay()
        result = run_product(
            products_by_id["app-mixer-001"], config_for(PipelineMode.ABLATED), backend
        )
        stats = result.call_stats
        assert backend.calls == 9
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (8, 0, 1)
        assert len(result.extractions) == 8

    def test_baseline_mode(self, products_by_id):
        backend = fresh_replay()
        result = run_product(
            products_by_id["app-mixer-001"], config_for(PipelineMode.BASELINE), backend
        )
        stats = result.call_stats
        assert backend.calls == 1
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (0, 0, 1)
        assert result.extractions == {}

    def test_permanently_failed_request_is_counted(self, products_by_id):
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_mix_r3)
        result = run_product(products_by_id["app-mixer-001"], config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ("mix-r3",)
        stats = result.call_stats
        assert backend.calls == 18
        assert (
            stats.extraction_calls, stats.comparison_calls, stats.grouping_calls, stats.retries
        ) == (8, 7, 1, 2)
        assert_attempt_identity(backend, stats)

    def test_malformed_cache_hit_is_retried_once(self, products_by_id, tmp_path):
        product = products_by_id["app-mixer-001"]
        config = config_for(PipelineMode.BASELINE)
        cache = DiskResponseCache(tmp_path)
        request = build_baseline_prompt(product, model=config.comparison_model)
        cache.put(fingerprint(request), ChatResponse(text="not json", model="m"))
        backend = ScriptedBackend([json.dumps({"sections": []})])
        result = run_product(product, config, backend, cache=cache)
        assert result.failed_units == ()
        stats = result.call_stats
        assert (stats.total_calls, stats.cache_hits, stats.retries, backend.calls) == (1, 1, 1, 1)
        assert_attempt_identity(backend, stats)


class TestCaching:
    def test_warm_rerun_issues_no_calls(self, products_by_id, tmp_path):
        product = products_by_id["app-mixer-001"]
        config = config_for(PipelineMode.FULL, cache_dir=tmp_path / "cache")

        cold_backend = fresh_replay()
        cold = run_product(product, config, cold_backend)
        assert cold_backend.calls == 17

        warm_backend = fresh_replay()
        warm = run_product(product, config, warm_backend)
        assert warm_backend.calls == 0
        assert warm.call_stats.cache_hits == 17
        for fmt in ReportFormat:
            assert render_report(warm.report, fmt) == render_report(cold.report, fmt)

    def test_cache_shared_across_modes_is_isolated_by_prompt(self, products_by_id, tmp_path):
        product = products_by_id["app-mixer-001"]
        config = config_for(PipelineMode.ABLATED, cache_dir=tmp_path / "cache")
        first = fresh_replay()
        run_product(product, config, first)
        assert first.calls == 9
        second = fresh_replay()
        warm = run_product(product, config, second)
        assert second.calls == 0
        assert warm.call_stats.cache_hits == 9

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
    def test_identical_request_in_flight_is_waited_for(self, products_by_id, tmp_path, cached):
        # bud-r1 and bud-r8 send one byte-identical comparison request.
        product = products_by_id["ele-buds-003"]
        sent: list[str] = []
        run_product(
            product,
            config_for(PipelineMode.FULL, workers=1),
            SelectiveFailureBackend(fresh_replay(), fail_with=lambda r: sent.append(fingerprint(r))),
        )
        (shared,) = {digest for digest in sent if sent.count(digest) == 2}
        arrivals: list[str] = []
        second = threading.Event()

        def hold_until_second(request):
            """Hold the shared request until an identical one arrives or 1 s passes."""
            if fingerprint(request) == shared:
                arrivals.append(shared)
                if len(arrivals) == 1:
                    second.wait(1.0)
                else:
                    second.set()
            return None

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=hold_until_second)
        config = config_for(PipelineMode.FULL, cache_dir=tmp_path / "cache" if cached else None)
        result = run_product(product, config, backend)
        assert result.failed_units == ()
        stats = result.call_stats
        assert len(arrivals) == (1 if cached else 2)
        assert stats.cache_hits == (1 if cached else 0)
        assert backend.calls == (18 if cached else 19)
        assert_attempt_identity(backend, stats)

    def test_identical_request_waits_without_its_permit(self, products, tmp_path):
        """Mixer and serum each repeat their first review. That review's
        extraction fails once, and while it backs off the run goes on with
        the next reviews, one of which fails once too. The repeated request
        then waits for the one backing off, holding no permit and no thread,
        and the run finishes: each repeat is read from the cache."""
        mixer, serum, buds = products

        def repeat_first_review(product, at):
            reviews = list(product.reviews)
            reviews.insert(at, dataclasses.replace(reviews[0], review_id=reviews[0].review_id + "-again"))
            return dataclasses.replace(product, reviews=tuple(reviews))

        run = [repeat_first_review(mixer, 3), repeat_first_review(serum, 2), buds]
        clean = list(run_products(run, config_for(PipelineMode.FULL, workers=1), fresh_replay()))
        fail = fail_once(
            *[(product.reviews[i].text, TransportError("blip")) for product, i in
              ((mixer, 0), (mixer, 2), (serum, 0), (serum, 1))]
        )

        def slow_fail(request):
            time.sleep(0.01)
            return fail(request)

        config = config_for(
            PipelineMode.FULL,
            workers=2,
            retry=RetryPolicy(max_attempts=3, base_delay_ms=200, backoff_factor=1.0),
            cache_dir=tmp_path / "cache",
        )
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=slow_fail)
        results: list = []
        runner = threading.Thread(target=lambda: results.extend(run_products(run, config, backend)), daemon=True)
        runner.start()
        runner.join(10)
        assert not runner.is_alive()
        assert [r.failed_units for r in results] == [(), (), ()]
        for got, want in zip(results, clean, strict=True):
            assert render_report(got.report, ReportFormat.JSON) == render_report(want.report, ReportFormat.JSON)
        assert sum(r.call_stats.retries for r in results) == 4
        # A repeated review reads both its requests from the cache.
        assert [r.call_stats.cache_hits for r in results] == [2, 2, 1]

    def test_cold_cached_runs_send_each_request_once_under_stress(self, products_by_id, tmp_path):
        product = products_by_id["ele-buds-003"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in range(200):
                backend = fresh_replay()
                config = config_for(PipelineMode.FULL, workers=8, cache_dir=tmp_path / str(run))
                stats = run_product(product, config, backend).call_stats
                assert (backend.calls, stats.cache_hits) == (18, 1), run
        finally:
            sys.setswitchinterval(interval)


class TestDegradedModes:
    def test_extraction_failure_isolates_one_review(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_mix_r3)
        result = run_product(product, config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ("mix-r3",)
        assert any("mix-r3" in note for note in result.diagnostics)

        cited = {rid for insight in result.report.insights for rid in insight.evidence}
        assert "mix-r3" not in cited
        assert len(cited) == 7

    def test_grouping_failure_degrades_to_other(self, products_by_id):
        product = products_by_id["app-mixer-001"]

        def fail_grouping(request):
            if GROUPING_MARKER in request.user_prompt:
                return TransportError("grouping outage")
            return None

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_grouping)
        result = run_product(product, config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ()
        assert any("grouping" in note.lower() for note in result.diagnostics)
        categories = {insight.category for insight in result.report.insights}
        assert categories == {"Other"}

    def test_baseline_malformed_yields_empty_report(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = ScriptedBackend(["certainly! here is prose, not JSON"] * 3)
        result = run_product(product, config_for(PipelineMode.BASELINE), backend)
        assert result.failed_units == ()
        assert result.report.insights == ()
        assert result.diagnostics != ()

    def test_baseline_transport_outage_fails_every_review(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = ScriptedBackend([TransportError("down")] * 3)
        result = run_product(product, config_for(PipelineMode.BASELINE), backend)
        assert result.failed_units == tuple(product.review_ids)

    def test_ablated_direct_call_outage_keeps_extractions(self, products_by_id):
        product = products_by_id["app-mixer-001"]

        def fail_direct(request):
            if ABLATED_MARKER in request.user_prompt:
                return TransportError("down")
            return None

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_direct)
        result = run_product(product, config_for(PipelineMode.ABLATED), backend)
        assert result.failed_units == tuple(product.review_ids)
        assert len(result.extractions) == 8

    def test_retry_recovers_and_is_counted(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        flaky_calls = {"n": 0}

        def fail_once(request):
            if MIX_R3_TEXT in request.user_prompt and flaky_calls["n"] == 0:
                flaky_calls["n"] += 1
                return TransportError("blip")
            return None

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_once)
        result = run_product(product, config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ()
        assert result.call_stats.retries == 1

    def test_backoff_past_the_float_range_fails_the_reviews(self, products_by_id):
        """``1e10 ** 31`` overflows a float at the 32nd retry; with a zero
        base delay every retry is still immediate, and the exhausted
        reviews fail as units instead of ending the run."""
        product = products_by_id["app-mixer-001"]
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=lambda request: TransportError("down"))
        retry = RetryPolicy(max_attempts=40, base_delay_ms=0, backoff_factor=1e10)
        result = run_product(product, config_for(PipelineMode.FULL, retry=retry), backend)
        assert result.failed_units == tuple(product.review_ids)
        assert len(product.review_ids) == 8
        assert backend.calls == 8 * 40


class TestEdgeCases:
    def test_empty_product_full_mode(self):
        product = ProductRecord(
            product_id="empty-1", title="Nothing", category="Misc", seller_description="d"
        )
        backend = ScriptedBackend([])
        result = run_product(product, config_for(PipelineMode.FULL), backend)
        assert backend.calls == 0
        assert result.call_stats.total_calls == 0
        assert result.report.insights == ()

    def test_empty_product_baseline_mode(self):
        product = ProductRecord(
            product_id="empty-1", title="Nothing", category="Misc", seller_description="d"
        )
        backend = ScriptedBackend([])
        result = run_product(product, config_for(PipelineMode.BASELINE), backend)
        assert backend.calls == 0
        assert result.failed_units == ()


class TestRunProductDispatch:
    @pytest.mark.parametrize(
        "mode,expected_calls",
        [(PipelineMode.FULL, 17), (PipelineMode.ABLATED, 9), (PipelineMode.BASELINE, 1)],
    )
    def test_dispatch(self, products_by_id, mode, expected_calls):
        backend = fresh_replay()
        run_product(products_by_id["app-mixer-001"], config_for(mode), backend)
        assert backend.calls == expected_calls


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, products_by_id):
        product = products_by_id["ele-buds-003"]
        reference = None
        for workers in (1, 2, 8):
            backend = JitterBackend(fresh_replay(), seed=workers)
            result = run_product(
                product, config_for(PipelineMode.FULL, workers=workers), backend
            )
            rendered = render_report(result.report, ReportFormat.JSON)
            if reference is None:
                reference = rendered
            assert rendered == reference


MIX_R1_TEXT = "The stainless steel bowl holds a full 5"
MIX_R2_TEXT = "Mine arrived in red, which looks great"


def request_labeller(product: ProductRecord):
    """Names each request of a full run over ``product`` as
    "<review id>/<stage>" or "grouping"."""
    clean = run_product(product, config_for(PipelineMode.FULL), fresh_replay())
    model = PipelineConfig().comparison_model
    comparisons = {
        build_comparison_prompt(list(attrs), product.seller_description, model=model).user_prompt: rid
        for rid, attrs in clean.extractions.items()
        if attrs
    }

    def label(request) -> str:
        prompt = request.user_prompt
        if GROUPING_MARKER in prompt:
            return "grouping"
        if prompt in comparisons:
            return f"{comparisons[prompt]}/comparison"
        return next(f"{r.review_id}/extraction" for r in product.reviews if r.text in prompt)

    return label


class RecordingBackend:
    """Delegates, recording the label of every call in arrival order."""

    def __init__(self, inner, label):
        self.inner = inner
        self._label = label
        self._lock = threading.Lock()
        self.calls: list[str] = []

    def complete(self, request):
        with self._lock:
            self.calls.append(self._label(request))
        return self.inner.complete(request)


def fail_once(*faults):
    """A failure predicate raising each (review text, error) once, on the
    first extraction request for that review."""
    pending = list(faults)
    lock = threading.Lock()

    def fail_with(request):
        with lock:
            for fault in pending:
                if fault[0] in request.user_prompt:
                    pending.remove(fault)
                    return fault[1]
        return None

    return fail_with


def stall_once(fail_with, text, seconds):
    """Wraps a failure predicate: the first request whose prompt holds
    ``text`` takes ``seconds`` longer, then is answered or fails as
    ``fail_with`` says."""
    pending = [text]

    def stalled(request):
        if pending and text in request.user_prompt:
            pending.clear()
            time.sleep(seconds)
        return fail_with(request)

    return stalled


class TestBackoffScheduling:
    """One worker, so the order of calls is set by the ready units' key,
    (product rank, level, review index), and by the 200 ms backoff: a
    product's extractions go before its comparisons."""

    def run(self, product, faults, *, base_delay_ms=200, stall=None):
        """Runs full mode with each (review text, error) fault raised once,
        and the first request holding ``stall``'s text, if given, slowed by
        its seconds; returns the result (or the exception raised) and the
        calls made."""
        fail_with = fail_once(*faults)
        if stall is not None:
            fail_with = stall_once(fail_with, *stall)
        backend = RecordingBackend(
            SelectiveFailureBackend(fresh_replay(), fail_with=fail_with),
            request_labeller(product),
        )
        config = config_for(
            PipelineMode.FULL,
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay_ms=base_delay_ms, backoff_factor=1.0),
        )
        try:
            return run_product(product, config, backend), backend.calls
        except RuntimeError as exc:
            return exc, backend.calls

    def assert_as_without_backoff(self, product, faults, result):
        """A zero backoff puts the request straight back as the first ready
        one, so it keeps the sequential schedule; the results must not
        depend on the schedule."""
        reference, _ = self.run(product, faults, base_delay_ms=0)
        expected = golden("full", product.product_id, "report.json")
        for run in (result, reference):
            assert render_report(run.report, ReportFormat.JSON) == expected
        assert render_report(result.report, ReportFormat.MARKDOWN) == render_report(
            reference.report, ReportFormat.MARKDOWN
        )
        assert result.call_stats == reference.call_stats
        assert (result.failed_units, result.diagnostics) == ((), reference.diagnostics)

    def others(self, product, *skip):
        """The calls of every review but ``skip``: the extractions, then the
        comparisons, each in dataset order."""
        kept = [review.review_id for review in product.reviews if review.review_id not in skip]
        return [f"{review_id}/{stage}" for stage in ("extraction", "comparison") for review_id in kept]

    @pytest.mark.parametrize("product_id", ["app-mixer-001", "bty-serum-002", "ele-buds-003"])
    def test_a_clean_run_sends_the_extractions_then_the_comparisons(self, products_by_id, product_id):
        """Each extraction heads the longest chain left (extract, compare,
        group), so every one goes before any comparison."""
        product = products_by_id[product_id]
        # Two reviews may extract the same attributes and so send the same
        # comparison prompt: the calls are compared by prompt.
        backend = RecordingBackend(fresh_replay(), lambda request: request.user_prompt)
        config = config_for(PipelineMode.FULL, workers=1)
        result = run_product(product, config, backend)
        extractions = [
            build_extraction_prompt(review, product.title, model=config.extraction_model).user_prompt
            for review in product.reviews
        ]
        comparisons = [
            build_comparison_prompt(
                list(attrs), product.seller_description, model=config.comparison_model
            ).user_prompt
            for attrs in (result.extractions[rid] for rid in product.review_ids)
            if attrs
        ]
        *calls, grouping = backend.calls
        assert calls == extractions + comparisons
        assert GROUPING_MARKER in grouping

    def test_a_retried_extraction_goes_before_the_comparisons(self, products_by_id):
        """mix-r1's extraction backs off and keeps its level: the last
        other extraction takes 300 ms, so the retry falls due while every
        other comparison is ready, and goes first."""
        product = products_by_id["app-mixer-001"]
        last = product.reviews[-1]
        faults = [(MIX_R1_TEXT, TransportError("blip"))]
        result, calls = self.run(product, faults, stall=(last.text, 0.3))
        extractions = [f"{review.review_id}/extraction" for review in product.reviews]
        comparisons = [f"{review.review_id}/comparison" for review in product.reviews]
        assert calls == extractions + ["mix-r1/extraction"] + comparisons + ["grouping"]
        assert result.call_stats.retries == 1
        self.assert_as_without_backoff(product, faults, result)

    def test_transport_backoff_runs_the_other_reviews(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        faults = [(MIX_R1_TEXT, TransportError("blip"))]
        result, calls = self.run(product, faults)
        assert calls == (
            ["mix-r1/extraction"]
            + self.others(product, "mix-r1")
            + ["mix-r1/extraction", "mix-r1/comparison", "grouping"]
        )
        stats = result.call_stats
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (8, 8, 1)
        assert stats.retries == 1
        self.assert_as_without_backoff(product, faults, result)

    def test_throttled_backoff_runs_the_other_reviews(self, products_by_id):
        """The limit cannot drop below one permit, so with one worker a
        throttled backoff schedules like a transport error's."""
        product = products_by_id["app-mixer-001"]
        faults = [(MIX_R1_TEXT, RateLimitedError("slow down"))]
        result, calls = self.run(product, faults)
        assert calls == (
            ["mix-r1/extraction"]
            + self.others(product, "mix-r1")
            + ["mix-r1/extraction", "mix-r1/comparison", "grouping"]
        )
        stats = result.call_stats
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (8, 8, 1)
        assert stats.retries == 1
        self.assert_as_without_backoff(product, faults, result)

    def test_two_backoffs_hold_no_thread(self, products_by_id):
        """mix-r2 fails while mix-r1 backs off: the one worker runs every
        other review in the two backoffs, then each retry in deadline
        order. mix-r2's failed call takes 100 ms, so its retry falls due
        after mix-r1's retry and comparison."""
        product = products_by_id["app-mixer-001"]
        faults = [(MIX_R1_TEXT, TransportError("blip")), (MIX_R2_TEXT, TransportError("blip"))]
        result, calls = self.run(product, faults, stall=(MIX_R2_TEXT, 0.1))
        assert calls == (
            ["mix-r1/extraction", "mix-r2/extraction"]
            + self.others(product, "mix-r1", "mix-r2")
            + ["mix-r1/extraction", "mix-r1/comparison", "mix-r2/extraction", "mix-r2/comparison"]
            + ["grouping"]
        )
        assert result.call_stats.retries == 2
        self.assert_as_without_backoff(product, faults, result)

    def test_bug_in_a_review_surfaces_after_the_others(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        error, calls = self.run(
            product, [(MIX_R1_TEXT, TransportError("blip")), (MIX_R2_TEXT, RuntimeError("bug"))]
        )
        assert isinstance(error, RuntimeError) and str(error) == "bug"
        # mix-r2 raised while mix-r1 backed off, yet mix-r1 retried and went
        # on to its comparison: the error is kept with its review and raised
        # once every other review is done, before the grouping call.
        assert calls == (
            ["mix-r1/extraction", "mix-r2/extraction"]
            + self.others(product, "mix-r1", "mix-r2")
            + ["mix-r1/extraction", "mix-r1/comparison"]
        )

    def test_backoff_of_an_hour_keeps_the_helper(self, products):
        """The first call fails and its retry is due in an hour, the longest
        wait the caps allow: the one helper runs every other unit, then
        waits on that deadline, and closing the run ends the wait at once."""
        first = itertools.count()
        backend = SelectiveFailureBackend(
            fresh_replay(), fail_with=lambda request: TransportError("blip") if next(first) == 0 else None
        )
        retry = RetryPolicy(max_attempts=2, base_delay_ms=3_600_000)
        config = config_for(PipelineMode.FULL, workers=1, retry=retry)
        scheduler = _Scheduler(products, config, backend, None, 1)
        (helper,) = scheduler._helpers
        try:
            give_up = time.monotonic() + 30
            while time.monotonic() < give_up:
                # Holding the lock with no permit out and no unit ready, the
                # helper is inside its wait for the deadline.
                with scheduler._work:
                    if scheduler._timers and not scheduler._ready and not scheduler._in_flight:
                        break
                time.sleep(0.01)
            assert [product.result is not None for product in scheduler._admitted] == [False, True, True]
            helper.join(0.5)
            assert helper.is_alive()
        finally:
            closing = time.monotonic()
            scheduler.close()
        assert time.monotonic() - closing < 1
        assert not helper.is_alive()


class TestInterrupts:
    def test_interrupt_on_a_helper_thread_reaches_the_caller(self, products_by_id):
        """A KeyboardInterrupt on a helper thread is kept with its review and
        re-raised on the caller's thread, never lost with the thread."""
        interrupt = KeyboardInterrupt()
        raised: list[BaseException] = []
        lock = threading.Lock()

        def interrupt_once(request):
            with lock:
                if raised:
                    return None
                raised.append(interrupt)
                return interrupt

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=interrupt_once)
        config = config_for(PipelineMode.FULL, workers=2)
        with pytest.raises(KeyboardInterrupt) as info:
            run_product(products_by_id["app-mixer-001"], config, backend)
        assert info.value is interrupt


    def test_a_stopped_product_makes_no_new_call(self, products_by_id):
        """Once a KeyboardInterrupt on one thread stops the product, the
        request in flight on the other thread gets no follow-up call, and
        no queued review starts."""
        product = products_by_id["app-mixer-001"]
        interrupt = KeyboardInterrupt()
        r1_sent = threading.Event()

        def slow_r1_and_interrupt_r2(request):
            if MIX_R1_TEXT in request.user_prompt:
                r1_sent.set()
                time.sleep(0.2)
            if MIX_R2_TEXT not in request.user_prompt:
                return None
            # The interrupt comes while mix-r1's request is in flight.
            assert r1_sent.wait(5)
            return interrupt

        backend = RecordingBackend(
            SelectiveFailureBackend(fresh_replay(), fail_with=slow_r1_and_interrupt_r2),
            request_labeller(product),
        )
        with pytest.raises(KeyboardInterrupt) as info:
            run_product(product, config_for(PipelineMode.FULL, workers=2), backend)
        assert info.value is interrupt
        assert sorted(backend.calls) == ["mix-r1/extraction", "mix-r2/extraction"]


class TestPermitPool:
    def test_a_free_permit_goes_to_the_earliest_waiting_rank(self, products):
        """One permit over three products goes to the first ready request by
        (product rank, review index): serum starts only once every mixer
        request still to go backs off, mixer takes the permit back at its
        deadline, and buds starts only once serum has nothing left."""
        mixer, serum, buds = (product.product_id for product in products)
        owners = {}
        for product in products:
            clean = RecordingBackend(fresh_replay(), lambda r: r.user_prompt)
            run_product(product, config_for(PipelineMode.FULL, workers=1), clean)
            owners.update(dict.fromkeys(clean.calls, product.product_id))
        fail = fail_once((products[0].reviews[0].text, TransportError("blip")))
        calls: list[tuple[str, str, float, float]] = []

        def timed(request):
            start = time.monotonic()
            if owners[request.user_prompt] != mixer:
                time.sleep(0.02)
            calls.append((owners[request.user_prompt], request.user_prompt, start, time.monotonic()))
            return fail(request)

        config = config_for(
            PipelineMode.FULL,
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay_ms=200, backoff_factor=1.0),
        )
        results = list(run_products(products, config, SelectiveFailureBackend(fresh_replay(), fail_with=timed)))
        for product, result in zip(products, results):
            assert render_report(result.report, ReportFormat.JSON) == golden(
                "full", product.product_id, "report.json"
            )
        names = [owner for owner, *_ in calls]
        others = 2 * len(products[0].reviews) - 2  # mixer's other reviews, two calls each
        assert names[: others + 2] == [mixer] * (others + 1) + [serum]
        retry = next(i for i, call in enumerate(calls) if i and call[1] == calls[0][1])
        deadline = calls[0][3] + 0.2
        assert len([call for call in calls[:retry] if call[2] >= deadline]) <= 1
        assert names[retry : retry + 3] == [mixer] * 3 and mixer not in names[retry + 3 :]
        assert names.index(buds) == len(names) - names[::-1].index(serum)

    def test_limit_halves_to_one_and_grows_back_to_count(self, products):
        """The limit each backend call finds, on one thread at workers=8:
        each of four 429s halves it, to a floor of 1, and each answer adds
        1/limit back, up to workers."""
        calls = itertools.count()
        limits = []

        def throttle_four(request):
            limits.append(scheduler._limit)
            return RateLimitedError("slow down") if next(calls) < 4 else None

        config = config_for(
            PipelineMode.FULL, workers=8, retry=RetryPolicy(max_attempts=5, base_delay_ms=0, backoff_factor=1.0)
        )
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=throttle_four)
        # No helper: the run is served on this thread, so the order of
        # calls, and the limit each finds, is fixed.
        scheduler = _Scheduler(products, config, backend, None, 0)
        try:
            scheduler._serve()
            results = [scheduler.result(rank) for rank in range(len(products))]
        finally:
            scheduler.close()
        assert limits[:5] == [8.0, 4.0, 2.0, 1.0, 1.0]
        assert limits[5:8] == [2.0, 2.5, 2.9]
        assert scheduler._limit == 8.0
        assert results[0].call_stats.retries == 4
        for product, result in zip(products, results):
            assert render_report(result.report, ReportFormat.JSON) == golden(
                "full", product.product_id, "report.json"
            )

    def test_permits_out_stay_within_the_limit(self, products_by_id):
        """Two permits at workers=2. A 429 while both are out halves the
        limit to 1, so the other call going back (a transport error, which
        leaves the limit) frees one only then, and the next call runs alone.
        Its answer raises the limit back to 2, and two calls overlap again."""
        product = products_by_id["app-mixer-001"]
        lock = threading.Lock()
        spans: list[list[float]] = []  # [start, end] of each backend call, in order
        both_out, overlap_again = threading.Barrier(2, timeout=5), threading.Barrier(2, timeout=5)

        def scripted(request):
            with lock:
                n = len(spans)
                spans.append([time.monotonic(), 0.0])
            try:
                if n < 2:
                    both_out.wait()
                    if n == 0:
                        return RateLimitedError("slow down")
                    time.sleep(0.1)
                    return TransportError("blip")
                if n == 2:
                    time.sleep(0.05)
                elif n in (3, 4):
                    overlap_again.wait()
                return None
            finally:
                spans[n][1] = time.monotonic()

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=scripted)
        result = run_product(product, config_for(PipelineMode.FULL, workers=2), backend)
        # Nothing starts while the transport error's call is out, nor while
        # the lone call is.
        assert spans[2][0] >= spans[1][1]
        assert spans[3][0] >= spans[2][1]
        assert render_report(result.report, ReportFormat.JSON) == golden(
            "full", product.product_id, "report.json"
        )
        assert result.call_stats.retries == 2


class FaultyBackend:
    """Fails each planned request once, or on every attempt if
    ``permanent``, by user prompt, with its planned kind, and records the
    calls made and the peak of calls in flight and of live threads."""

    def __init__(self, inner, plan: dict[str, str], *, permanent: bool = False):
        self.inner = inner
        self._plan = dict(plan)
        self._permanent = permanent
        self._lock = threading.Lock()
        self._in_flight = 0
        self.calls = 0
        self.peak_in_flight = 0
        self.peak_threads = 0

    def complete(self, request):
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            self.peak_threads = max(self.peak_threads, threading.active_count())
            if self._permanent:
                kind = self._plan.get(request.user_prompt)
            else:
                kind = self._plan.pop(request.user_prompt, None)
        try:
            if kind == "transport":
                raise TransportError("injected")
            if kind == "rate_limited":
                raise RateLimitedError("injected")
            if kind == "malformed":
                return ChatResponse(text="not json", model=request.model)
            return self.inner.complete(request)
        finally:
            with self._lock:
                self._in_flight -= 1


class TestOneServingMode:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("runner", ["run_product", "run_products"])
    def test_the_caller_only_waits(self, products, runner, workers):
        """A lone ``run_product`` is served as a run of ``run_products`` is:
        by ``workers`` threads of its own, while the caller only waits."""
        calling_threads: set[int] = set()

        def note_thread(request):
            calling_threads.add(threading.get_ident())
            time.sleep(0.002)  # a call long enough for every thread to take one
            return None

        backend = FaultyBackend(SelectiveFailureBackend(fresh_replay(), fail_with=note_thread), {})
        config = config_for(PipelineMode.FULL, workers=workers)
        threads_before = threading.active_count()
        if runner == "run_product":
            results = [run_product(product, config, backend) for product in products]
        else:
            results = list(run_products(products, config, backend))
        for product, result in zip(products, results):
            assert render_report(result.report, ReportFormat.JSON) == golden(
                "full", product.product_id, "report.json"
            )
        assert calling_threads and threading.get_ident() not in calling_threads
        assert backend.peak_threads <= threads_before + workers
        assert backend.peak_in_flight <= workers

    @pytest.mark.parametrize("started", [0, 1, 3])
    def test_a_helper_that_fails_to_start_ends_the_run(self, products, monkeypatch, started):
        """``Thread.start`` raises for the helper after ``started`` of them,
        as it does in a process that can start no more threads: the helpers
        already serving the run have returned by the time the error reaches
        the caller."""
        helpers: list[threading.Thread] = []

        class FailingThread(threading.Thread):
            def start(self):
                if len(helpers) == started:
                    raise RuntimeError("can't start new thread")
                helpers.append(self)
                super().start()

        # Calls long enough that a helper left serving would still be busy.
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=lambda request: time.sleep(0.02))
        monkeypatch.setattr(threading, "Thread", FailingThread)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            list(run_products(products, config_for(PipelineMode.FULL, workers=4), backend))
        monkeypatch.undo()
        assert len(helpers) == started
        assert not any(helper.is_alive() for helper in helpers)


class TestTransientFaultProperty:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_transient_faults_keep_results_and_caps(self, products, canned_config, data):
        product = data.draw(st.sampled_from(products), label="product")
        clean_backend = RecordingBackend(
            CannedReviewModel.from_config(products, canned_config), lambda r: r.user_prompt
        )
        clean = run_product(product, config_for(PipelineMode.FULL, workers=1), clean_backend)
        plan = data.draw(
            st.dictionaries(
                st.sampled_from(clean_backend.calls),
                st.sampled_from(["transport", "rate_limited", "malformed"]),
                max_size=6,
            ),
            label="faults",
        )
        policy = RetryPolicy(
            max_attempts=3,
            base_delay_ms=data.draw(st.integers(1, 5), label="base_delay_ms"),
            backoff_factor=2.0,
        )
        expected = render_report(clean.report, ReportFormat.JSON)
        stats = set()
        for workers in (1, 2, 8):
            backend = FaultyBackend(CannedReviewModel.from_config(products, canned_config), plan)
            threads_before = threading.active_count()
            result = run_product(
                product, config_for(PipelineMode.FULL, workers=workers, retry=policy), backend
            )
            assert render_report(result.report, ReportFormat.JSON) == expected
            assert result.failed_units == ()
            assert backend.peak_in_flight <= workers
            assert backend.peak_threads <= threads_before + workers
            stats.add(result.call_stats)
        assert len(stats) == 1
        assert stats.pop().retries == len(plan)


    def test_stress_more_workers_than_cores(self, products_by_id):
        product = products_by_id["ele-buds-003"]
        expected = golden("full", product.product_id, "report.json")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                faults = [(review.text, TransportError("blip")) for review in product.reviews[::3]]
                backend = SelectiveFailureBackend(
                    JitterBackend(fresh_replay(), seed=seed, max_delay_ms=2),
                    fail_with=fail_once(*faults),
                )
                config = config_for(
                    PipelineMode.FULL,
                    workers=8,
                    retry=RetryPolicy(max_attempts=3, base_delay_ms=1, backoff_factor=1.0),
                )
                result = run_product(product, config, backend)
                assert render_report(result.report, ReportFormat.JSON) == expected
                assert backend.calls == 19 + len(faults)
                assert result.call_stats.retries == len(faults)
        finally:
            sys.setswitchinterval(previous)


    def test_run_products_stress_more_workers_than_cores(self, products):
        """Products overlap in the run-wide permits: every report stays
        golden, every call is counted once, and the cap holds."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed, workers in itertools.product(range(5), (3, 8)):
                faults = [
                    (review.text, TransportError("blip"))
                    for product in products
                    for review in product.reviews[seed % 3 :: 3]
                ]
                backend = FaultyBackend(
                    SelectiveFailureBackend(
                        JitterBackend(fresh_replay(), seed=seed, max_delay_ms=2),
                        fail_with=fail_once(*faults),
                    ),
                    {},
                )
                config = config_for(
                    PipelineMode.FULL,
                    workers=workers,
                    retry=RetryPolicy(max_attempts=3, base_delay_ms=1, backoff_factor=1.0),
                )
                threads_before = threading.active_count()
                results = list(run_products(products, config, backend))
                for product, result in zip(products, results):
                    assert render_report(result.report, ReportFormat.JSON) == golden(
                        "full", product.product_id, "report.json"
                    )
                stats = [result.call_stats for result in results]
                assert sum(s.retries for s in stats) == len(faults)
                assert backend.calls == sum(s.total_calls - s.cache_hits + s.retries for s in stats)
                assert backend.peak_in_flight <= workers
                assert backend.peak_threads <= threads_before + workers
        finally:
            sys.setswitchinterval(previous)


class TestPermanentFaultProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_permanent_faults_fail_exactly_their_reviews(self, products, canned_config, data):
        """Requests that fail on every attempt, through ``run_products``: the
        reviews hit are the failed units and each report is a clean run
        over the rest; a failed grouping call puts every key in "Other"."""
        model = CannedReviewModel.from_config(products, canned_config)
        all_other = CannedReviewModel.from_config(
            products, {**canned_config, "categories": {}, "default_category": "Other"}
        )
        # (product, "<review id>/<stage>" or "grouping") -> its user prompt;
        # the grouping prompt depends on the reviews left, so comes later.
        units = {}
        defaults = PipelineConfig()
        for product in products:
            clean = run_product(product, config_for(PipelineMode.FULL, workers=1), model)
            units[(product.product_id, "grouping")] = None
            for review in product.reviews:
                extraction = build_extraction_prompt(review, product.title, model=defaults.extraction_model)
                units[(product.product_id, f"{review.review_id}/extraction")] = extraction.user_prompt
                if attributes := clean.extractions[review.review_id]:
                    comparison = build_comparison_prompt(
                        list(attributes), product.seller_description, model=defaults.comparison_model
                    )
                    units[(product.product_id, f"{review.review_id}/comparison")] = comparison.user_prompt
        hits = data.draw(
            st.dictionaries(
                st.sampled_from(sorted(units)),
                st.sampled_from(["transport", "rate_limited", "malformed"]),
                max_size=4,
            ),
            label="faults",
        )
        plan = {units[unit]: kind for unit, kind in hits.items() if unit[1] != "grouping"}
        expected = []
        for product in products:
            # A review is hit when one of its requests is: two reviews with
            # the same extraction send one comparison request.
            failed = tuple(
                r.review_id
                for r in product.reviews
                if any(
                    units.get((product.product_id, f"{r.review_id}/{stage}")) in plan
                    for stage in ("extraction", "comparison")
                )
            )
            rest = dataclasses.replace(
                product, reviews=tuple(r for r in product.reviews if r.review_id not in failed)
            )
            grouping_hit = (product.product_id, "grouping") in hits
            reference = RecordingBackend(all_other if grouping_hit else model, lambda r: r.user_prompt)
            report = run_product(rest, config_for(PipelineMode.FULL, workers=1), reference).report
            if grouping_hit:
                grouping = [prompt for prompt in reference.calls if GROUPING_MARKER in prompt]
                plan.update(dict.fromkeys(grouping, hits[(product.product_id, "grouping")]))
                categories = {insight.category for insight in report.insights}
                assert categories <= {"Other"}
            expected.append((failed, render_report(report, ReportFormat.JSON)))
        policy = RetryPolicy(
            max_attempts=3,
            base_delay_ms=data.draw(st.integers(1, 5), label="base_delay_ms"),
            backoff_factor=2.0,
        )
        for workers in (1, 2, 8):
            backend = FaultyBackend(model, plan, permanent=True)
            config = config_for(PipelineMode.FULL, workers=workers, retry=policy)
            results = list(run_products(products, config, backend))
            assert [(r.failed_units, render_report(r.report, ReportFormat.JSON)) for r in results] == expected
            assert backend.peak_in_flight <= workers
            stats = [r.call_stats for r in results]
            assert backend.calls == sum(s.total_calls - s.cache_hits + s.retries for s in stats)


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(
            mode=PipelineMode.ABLATED,
            workers=3,
            cache_dir=tmp_path / "c",
            retry=RetryPolicy(max_attempts=5, base_delay_ms=10, backoff_factor=3.0),
            grouping_model="m-2",
        )
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_mode_and_cache_dir_coerced_from_strings(self, tmp_path):
        config = PipelineConfig(mode="baseline", cache_dir=str(tmp_path))
        assert config.mode is PipelineMode.BASELINE
        assert config.cache_dir == tmp_path

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(workers=0)

    @pytest.mark.parametrize("cache_dir", ["", None])
    def test_empty_cache_dir_means_no_cache(self, cache_dir):
        assert PipelineConfig.from_dict({"cache_dir": cache_dir}).cache_dir is None

    def test_defaults_live_in_the_class(self):
        assert PipelineConfig.from_dict({}) == PipelineConfig()
        assert PipelineConfig.from_dict({"retry": {}}) == PipelineConfig()

    def test_integral_numbers_load_as_floats(self):
        # json.dumps renders 2 and 2.0 differently, and every run manifest
        # records its config: equal configs must be written alike.
        config = PipelineConfig.from_dict({"retry": {"backoff_factor": 2}})
        assert type(config.retry.backoff_factor) is float

    def test_no_credential_fields(self):
        field_names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert not any("key" in name or "credential" in name for name in field_names)


class TestManifest:
    def test_manifest_contents(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = fresh_replay()
        config = config_for(PipelineMode.FULL)
        result = run_product(product, config, backend)
        manifest = build_run_manifest(product, config, result, backend_label="replay")
        assert manifest["product_id"] == "app-mixer-001"
        assert manifest["mode"] == "full"
        assert manifest["backend"] == "replay"
        assert manifest["call_stats"]["extraction_calls"] == 8
        assert manifest["failed_units"] == []
        assert "api" not in str(manifest.get("config", {})).lower() or "key" not in str(
            manifest["config"]
        )
