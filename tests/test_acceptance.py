"""Acceptance suite: one test per shipping criterion, in order.

Each test is self-contained and runs offline against the bundled corpus.
Stated runtime budgets are asserted, not just hoped for.
"""

from __future__ import annotations

import json
import random
import shutil
import time

import pytest

from reviewlens.cache import DiskResponseCache
from reviewlens.cli import CREDENTIAL_ENV_VAR, main
from reviewlens.domain import (
    CategoryAssignment,
    ComparisonStatus,
    load_product_records,
    parse_status,
)
from reviewlens.errors import UnknownStatusError
from reviewlens.evaluation import (
    REFERENCE_CATEGORY_SCORES,
    GoldAttributeSet,
    f1,
    round_half_up,
    selection_metrics,
)
from reviewlens.extraction import build_extraction_prompt
from reviewlens.gateway import ReplayBackend, fingerprint
from reviewlens.pipeline import (
    PipelineConfig,
    PipelineMode,
    run_product,
)
from reviewlens.structuring import ReportFormat, build_report, merge_insights, render_report

from conftest import TESTDATA
from doubles import CountingBackend, JitterBackend
from test_evaluation import attr, oracle_metrics
from test_structuring import brute_force_body, random_compared_set, random_mapping

DATASET = str(TESTDATA / "dataset.json")
FIXTURES = str(TESTDATA / "fixtures")


def fresh_replay() -> CountingBackend:
    return CountingBackend(ReplayBackend(TESTDATA / "fixtures"))


def config_for(mode: PipelineMode, **overrides) -> PipelineConfig:
    base = dict(mode=mode, workers=4)
    base.update(overrides)
    return PipelineConfig(**base)


def test_01_reference_scores_reproduce_from_precision_and_recall():
    """Every published category row must satisfy its own F1 arithmetic."""
    started = time.monotonic()
    mismatches = []
    for category, precision, recall, reported in REFERENCE_CATEGORY_SCORES:
        computed = round_half_up(f1(precision, recall))
        if computed != reported:
            mismatches.append(
                f"{category}: f1({precision}, {recall}) = {f1(precision, recall):.6f}"
                f" rounds to {computed}, reference table says {reported}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion must finish in under 1s, took {elapsed:.2f}s"
    assert not mismatches, "reference rows inconsistent with their own columns:\n" + "\n".join(
        mismatches
    )


def test_02_call_count_identities_on_cold_cache(products_by_id):
    """R=8 productive reviews: full 2R+1=17, ablated R+1=9, baseline 1."""
    started = time.monotonic()
    mixer = products_by_id["app-mixer-001"]
    assert len(mixer.reviews) == 8

    full_backend = fresh_replay()
    run_product(mixer, config_for(PipelineMode.FULL), full_backend)
    assert full_backend.calls == 17

    ablated_backend = fresh_replay()
    run_product(mixer, config_for(PipelineMode.ABLATED), ablated_backend)
    assert ablated_backend.calls == 9

    baseline_backend = fresh_replay()
    run_product(mixer, config_for(PipelineMode.BASELINE), baseline_backend)
    assert baseline_backend.calls == 1

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion must finish in under 5s, took {elapsed:.2f}s"


def test_03_warm_rerun_is_call_free_and_byte_identical(products_by_id, tmp_path):
    started = time.monotonic()
    mixer = products_by_id["app-mixer-001"]
    for mode in PipelineMode:
        config = config_for(mode, cache_dir=tmp_path / f"cache-{mode.value}")
        cold_backend = fresh_replay()
        cold = run_product(mixer, config, cold_backend)
        assert cold_backend.calls > 0

        warm_backend = fresh_replay()
        warm = run_product(mixer, config, warm_backend)
        assert warm_backend.calls == 0, f"{mode.value} rerun touched the gateway"
        for fmt in ReportFormat:
            assert render_report(warm.report, fmt) == render_report(cold.report, fmt)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion must finish in under 5s, took {elapsed:.2f}s"


def test_04_report_bytes_stable_across_workers_and_orderings(products_by_id):
    """20 jitter-randomized completion orderings across workers 1, 2, and 8."""
    started = time.monotonic()
    buds = products_by_id["ele-buds-003"]
    reference = render_report(
        run_product(buds, config_for(PipelineMode.FULL, workers=1), fresh_replay()).report,
        ReportFormat.JSON,
    )
    worker_choices = (1, 2, 8)
    for seed in range(20):
        workers = worker_choices[seed % len(worker_choices)]
        backend = JitterBackend(fresh_replay(), seed=seed)
        result = run_product(buds, config_for(PipelineMode.FULL, workers=workers), backend)
        rendered = render_report(result.report, ReportFormat.JSON)
        assert rendered == reference, f"bytes diverged at seed={seed} workers={workers}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion must finish in under 30s, took {elapsed:.2f}s"


def test_05_single_review_failure_is_isolated(tmp_path, products_by_id, capsys):
    """A permanently failing extraction downgrades one review, not the run."""
    fixtures_copy = tmp_path / "fixtures"
    shutil.copytree(TESTDATA / "fixtures", fixtures_copy)
    mixer = products_by_id["app-mixer-001"]
    review = next(r for r in mixer.reviews if r.review_id == "mix-r3")
    request = build_extraction_prompt(review, mixer.title, model="gemini-2.0-flash")
    with DiskResponseCache(fixtures_copy) as fixtures:
        fixtures.evict(fingerprint(request))

    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures_copy),
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 2

    manifest = json.loads((out / "app-mixer-001" / "manifest.json").read_text())
    assert manifest["failed_units"] == ["mix-r3"]

    report = json.loads((out / "app-mixer-001" / "report.json").read_text())
    cited = {
        review_id
        for section in report["sections"]
        for group in section["categories"]
        for insight in group["insights"]
        for review_id in insight["evidence"]
    }
    assert cited == {f"mix-r{i}" for i in range(1, 9)} - {"mix-r3"}


def test_06_structuring_matches_brute_force_reference():
    rng = random.Random(20260821)
    for round_number in range(200):
        items = random_compared_set(rng, max_size=30)
        mapping = random_mapping(rng, items)
        report = build_report(
            merge_insights(items),
            CategoryAssignment(mapping=mapping),
            product_id="acc-6",
        )
        assert report.to_dict() == brute_force_body(items, mapping, "acc-6"), (
            f"divergence from brute-force reference at round {round_number}"
        )


def test_07_status_taxonomy_is_total_and_closed():
    accepted = {
        "Missing": ComparisonStatus.MISSING,
        "missing": ComparisonStatus.MISSING,
        " MISSING ": ComparisonStatus.MISSING,
        "Contradictory": ComparisonStatus.CONTRADICTORY,
        "Matching": ComparisonStatus.MATCHING,
        "Partially-matching": ComparisonStatus.PARTIALLY_MATCHING,
        "partially matching": ComparisonStatus.PARTIALLY_MATCHING,
        "PARTIAL": ComparisonStatus.PARTIALLY_MATCHING,
    }
    for label, expected in accepted.items():
        assert parse_status(label) is expected

    # Vowel-free alphabet: no fuzzed label can spell any accepted status.
    rng = random.Random(97)
    alphabet = "qxzjvwkbdfgh0123456789-_!#~ "
    for _ in range(1000):
        label = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        with pytest.raises(UnknownStatusError):
            parse_status(label)

    # Omission-default rule: output cardinality equals input cardinality
    # whatever subset of rows the model answers.
    from reviewlens.comparison import parse_comparison_response
    from reviewlens.domain import ExtractedAttribute

    keys = ["color", "weight", "size", "grip", "cord", "motor", "bowl"]
    for trial in range(50):
        attrs = [
            ExtractedAttribute(key=rng.choice(keys), value=str(i), review_id="r1")
            for i in range(rng.randint(1, 7))
        ]
        rows = [
            {"attribute": a.key, "value": a.value, "status": "Matching", "justification": "x"}
            for a in attrs
            if rng.random() < 0.6
        ]
        compared = parse_comparison_response(json.dumps({"results": rows}), attrs)
        assert len(compared) == len(attrs)


def test_08_selection_metrics_matches_set_oracle():
    import math

    rng = random.Random(4242)
    keys = ["color", "size", "weight", "grip", "cord", "motor", "bowl", "scent"]
    values = ["red", "XL", "2 kg", "soft", "long", "strong", "5 qt", "citrus"]
    for _ in range(100):
        predicted_pairs = {
            (rng.choice(keys), rng.choice(values)) for _ in range(rng.randint(0, 10))
        }
        gold_pairs = {
            (rng.choice(keys), rng.choice(values)) for _ in range(rng.randint(0, 10))
        }
        predicted = [attr(k, v) for k, v in sorted(predicted_pairs)]
        gold = GoldAttributeSet("p", "r", gold=gold_pairs)
        metrics = selection_metrics(predicted, gold)
        expected = oracle_metrics(predicted_pairs, gold_pairs)
        assert math.isclose(metrics.precision, expected[0])
        assert math.isclose(metrics.recall, expected[1])
        assert math.isclose(metrics.f1, expected[2])

    degenerate = selection_metrics([], GoldAttributeSet("p", "r"))
    assert degenerate.recall == 1.0
    assert degenerate.precision == 0.0
    assert degenerate.f1 == 0.0


def test_09_canary_key_never_reaches_disk_or_streams(
    tmp_path, monkeypatch, serve, canned_model, capsys, golden_bytes
):
    canary = "CANARY-9f27-SECRET"
    server = serve(backend=canned_model, key=canary)

    fixtures = tmp_path / "fixtures"
    record_out = tmp_path / "record-out"
    code = main(
        [
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--api-key", canary,
            "--base-url", server.url,
            "--mode", "full",
            "--out", str(record_out),
            "--cache-dir", str(tmp_path / "record-cache"),
        ]
    )
    assert code == 0

    # The live backend is the only holder of the key: it goes out in the
    # Authorization line of every request's head and nowhere else.
    live_out = tmp_path / "live-out"
    sent_before = len(server.arrivals)
    code = main(
        [
            "run",
            "--dataset", DATASET,
            "--backend", "live",
            "--api-key", canary,
            "--base-url", server.url,
            "--mode", "full",
            "--out", str(live_out),
            "--cache-dir", str(tmp_path / "live-cache"),
        ]
    )
    assert code == 0
    assert server.arrivals[sent_before:], "the live leg must reach the server"
    # Each request's raw bytes hold the key once, as its Authorization line.
    authorization = f"\r\nAuthorization: Bearer {canary}\r\n".encode("utf-8")
    for arrival in server.arrivals:
        head = arrival.raw.partition(b"\r\n\r\n")[0] + b"\r\n"
        assert authorization in head and arrival.raw.count(canary.encode("utf-8")) == 1, arrival.target
    for product in load_product_records(TESTDATA / "dataset.json"):
        for name in ("report.json", "report.md"):
            got = (live_out / product.product_id / name).read_bytes()
            assert got == golden_bytes("full", product.product_id, name), f"live {product.product_id}/{name}"

    monkeypatch.setenv(CREDENTIAL_ENV_VAR, canary)
    replay_out = tmp_path / "replay-out"
    code = main(
        [
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--mode", "full",
            "--out", str(replay_out),
            "--cache-dir", str(tmp_path / "replay-cache"),
        ]
    )
    assert code == 0

    captured = capsys.readouterr()
    canary_bytes = canary.encode("utf-8")
    assert canary_bytes not in captured.out.encode("utf-8")
    assert canary_bytes not in captured.err.encode("utf-8")

    written = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert written, "the cycle must actually write artifacts"
    for path in written:
        assert canary_bytes not in path.read_bytes(), f"canary key leaked into {path}"


def test_10_record_replay_round_trip_on_bundled_corpus(tmp_path, serve, canned_model):
    products = load_product_records(TESTDATA / "dataset.json")
    assert len(products) == 3
    assert len({product.category for product in products}) == 3
    for product in products:
        assert 7 <= len(product.reviews) <= 9

    server = serve(backend=canned_model, key="k-roundtrip")

    fixtures = tmp_path / "fixtures"
    record_out = tmp_path / "record-out"
    code = main(
        [
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--api-key", "k-roundtrip",
            "--base-url", server.url,
            "--mode", "full",
            "--out", str(record_out),
        ]
    )
    assert code == 0

    replay_out = tmp_path / "replay-out"
    code = main(
        [
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--mode", "full",
            "--out", str(replay_out),
        ]
    )
    assert code == 0

    for product in products:
        for name in ("report.json", "report.md"):
            recorded = (record_out / product.product_id / name).read_bytes()
            replayed = (replay_out / product.product_id / name).read_bytes()
            assert recorded == replayed, f"{product.product_id}/{name} diverged"
        bundled = (TESTDATA / "golden" / "full" / product.product_id / "report.json").read_bytes()
        assert (replay_out / product.product_id / "report.json").read_bytes() == bundled
