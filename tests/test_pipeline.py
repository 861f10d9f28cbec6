"""Orchestration: call accounting, caching, concurrency, degraded modes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from reviewlens.cache import DiskResponseCache
from reviewlens.domain import ProductRecord, ComparisonStatus
from reviewlens.errors import TransportError
from reviewlens.gateway import ChatResponse, ReplayBackend, RetryPolicy, fingerprint
from reviewlens.pipeline import (
    PipelineConfig,
    PipelineMode,
    build_baseline_prompt,
    build_run_manifest,
    run_ablated,
    run_baseline,
    run_full,
    run_product,
)
from reviewlens.structuring import ReportFormat, render_report
from reviewlens.testing import JitterBackend, ScriptedBackend, SelectiveFailureBackend

from conftest import TESTDATA

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


def fresh_replay() -> ReplayBackend:
    return ReplayBackend(TESTDATA / "fixtures")


def fail_mix_r3(request):
    if MIX_R3_TEXT in request.user_prompt:
        return TransportError("injected outage")
    return None


def assert_attempt_identity(backend, stats):
    assert backend.calls == stats.total_calls - stats.cache_hits + stats.retries


class TestCallAccounting:
    def test_full_mode_mixer(self, products_by_id):
        backend = fresh_replay()
        result = run_full(products_by_id["app-mixer-001"], config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ()
        stats = result.report.call_stats
        assert backend.calls == 17
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (8, 8, 1)
        assert stats.cache_hits == 0

    def test_full_mode_skips_comparison_for_empty_extraction(self, products_by_id):
        backend = fresh_replay()
        result = run_full(products_by_id["bty-serum-002"], config_for(PipelineMode.FULL), backend)
        stats = result.report.call_stats
        assert backend.calls == 14
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (7, 6, 1)
        assert "ser-r5" in result.extractions
        assert result.extractions["ser-r5"] == ()

    def test_full_mode_buds(self, products_by_id):
        backend = fresh_replay()
        result = run_full(products_by_id["ele-buds-003"], config_for(PipelineMode.FULL), backend)
        assert backend.calls == 19
        assert result.report.call_stats.extraction_calls == 9

    def test_ablated_mode(self, products_by_id):
        backend = fresh_replay()
        result = run_ablated(
            products_by_id["app-mixer-001"], config_for(PipelineMode.ABLATED), backend
        )
        stats = result.report.call_stats
        assert backend.calls == 9
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (8, 0, 1)
        assert len(result.extractions) == 8

    def test_baseline_mode(self, products_by_id):
        backend = fresh_replay()
        result = run_baseline(
            products_by_id["app-mixer-001"], config_for(PipelineMode.BASELINE), backend
        )
        stats = result.report.call_stats
        assert backend.calls == 1
        assert (stats.extraction_calls, stats.comparison_calls, stats.grouping_calls) == (0, 0, 1)
        assert result.extractions == {}

    def test_permanently_failed_request_is_counted(self, products_by_id):
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_mix_r3)
        result = run_full(products_by_id["app-mixer-001"], config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ("mix-r3",)
        stats = result.report.call_stats
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
        result = run_baseline(product, config, backend, cache=cache)
        assert result.failed_units == ()
        stats = result.report.call_stats
        assert (stats.total_calls, stats.cache_hits, stats.retries, backend.calls) == (1, 1, 1, 1)
        assert_attempt_identity(backend, stats)


class TestCaching:
    def test_warm_rerun_issues_no_calls(self, products_by_id, tmp_path):
        product = products_by_id["app-mixer-001"]
        config = config_for(PipelineMode.FULL, cache_dir=tmp_path / "cache")

        cold_backend = fresh_replay()
        cold = run_full(product, config, cold_backend)
        assert cold_backend.calls == 17

        warm_backend = fresh_replay()
        warm = run_full(product, config, warm_backend)
        assert warm_backend.calls == 0
        assert warm.report.call_stats.cache_hits == 17
        for fmt in ReportFormat:
            assert render_report(warm.report, fmt) == render_report(cold.report, fmt)

    def test_cache_shared_across_modes_is_isolated_by_prompt(self, products_by_id, tmp_path):
        product = products_by_id["app-mixer-001"]
        config = config_for(PipelineMode.ABLATED, cache_dir=tmp_path / "cache")
        first = fresh_replay()
        run_ablated(product, config, first)
        assert first.calls == 9
        second = fresh_replay()
        warm = run_ablated(product, config, second)
        assert second.calls == 0
        assert warm.report.call_stats.cache_hits == 9


class TestDegradedModes:
    def test_extraction_failure_isolates_one_review(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_mix_r3)
        result = run_full(product, config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ("mix-r3",)
        assert any("mix-r3" in note for note in result.diagnostics)

        cited = {
            rid
            for section in result.report.sections
            for group in section.groups
            for insight in group.insights
            for rid in insight.evidence
        }
        assert "mix-r3" not in cited
        assert len(cited) == 7

    def test_grouping_failure_degrades_to_other(self, products_by_id):
        product = products_by_id["app-mixer-001"]

        def fail_grouping(request):
            if GROUPING_MARKER in request.user_prompt:
                return TransportError("grouping outage")
            return None

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_grouping)
        result = run_full(product, config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ()
        assert any("grouping" in note.lower() for note in result.diagnostics)
        categories = {
            group.category
            for section in result.report.sections
            for group in section.groups
        }
        assert categories == {"Other"}

    def test_baseline_malformed_yields_empty_report(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = ScriptedBackend(["certainly! here is prose, not JSON"] * 3)
        result = run_baseline(product, config_for(PipelineMode.BASELINE), backend)
        assert result.failed_units == ()
        assert all(section.groups == () for section in result.report.sections)
        assert result.diagnostics != ()

    def test_baseline_transport_outage_fails_every_review(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = ScriptedBackend([TransportError("down")] * 3)
        result = run_baseline(product, config_for(PipelineMode.BASELINE), backend)
        assert result.failed_units == tuple(product.review_ids)

    def test_ablated_direct_call_outage_keeps_extractions(self, products_by_id):
        product = products_by_id["app-mixer-001"]

        def fail_direct(request):
            if ABLATED_MARKER in request.user_prompt:
                return TransportError("down")
            return None

        backend = SelectiveFailureBackend(fresh_replay(), fail_with=fail_direct)
        result = run_ablated(product, config_for(PipelineMode.ABLATED), backend)
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
        result = run_full(product, config_for(PipelineMode.FULL), backend)
        assert result.failed_units == ()
        assert result.report.call_stats.retries == 1


class TestEdgeCases:
    def test_empty_product_full_mode(self):
        product = ProductRecord(
            product_id="empty-1", title="Nothing", category="Misc", seller_description="d"
        )
        backend = ScriptedBackend([])
        result = run_full(product, config_for(PipelineMode.FULL), backend)
        assert backend.calls == 0
        assert result.report.call_stats.total_calls == 0
        assert all(section.groups == () for section in result.report.sections)

    def test_empty_product_baseline_mode(self):
        product = ProductRecord(
            product_id="empty-1", title="Nothing", category="Misc", seller_description="d"
        )
        backend = ScriptedBackend([])
        result = run_baseline(product, config_for(PipelineMode.BASELINE), backend)
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
            result = run_full(
                product, config_for(PipelineMode.FULL, workers=workers), backend
            )
            rendered = render_report(result.report, ReportFormat.JSON)
            if reference is None:
                reference = rendered
            assert rendered == reference


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(
            mode=PipelineMode.ABLATED,
            workers=3,
            cache_dir=tmp_path / "c",
            retry=RetryPolicy(max_attempts=5, base_delay_ms=10, backoff_factor=3.0),
            prompt_version="v2",
        )
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_mode_and_cache_dir_coerced_from_strings(self, tmp_path):
        config = PipelineConfig(mode="baseline", cache_dir=str(tmp_path))
        assert config.mode is PipelineMode.BASELINE
        assert config.cache_dir == tmp_path

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(workers=0)

    def test_no_credential_fields(self):
        field_names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert not any("key" in name or "credential" in name for name in field_names)


class TestManifest:
    def test_manifest_contents(self, products_by_id):
        product = products_by_id["app-mixer-001"]
        backend = fresh_replay()
        config = config_for(PipelineMode.FULL)
        result = run_full(product, config, backend)
        manifest = build_run_manifest(product, config, result, backend_label="replay")
        assert manifest["product_id"] == "app-mixer-001"
        assert manifest["mode"] == "full"
        assert manifest["backend"] == "replay"
        assert manifest["call_stats"]["extraction_calls"] == 8
        assert manifest["failed_units"] == []
        assert "api" not in str(manifest.get("config", {})).lower() or "key" not in str(
            manifest["config"]
        )
