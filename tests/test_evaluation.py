"""Evaluation harness: metric arithmetic, annotation handling, tables.

The selection-metric tests check against an independent set-intersection
oracle written inline; the acceptance suite reuses that oracle.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.domain import ExtractedAttribute, normalize_key
from reviewlens.errors import (
    DataFormatError,
    OutOfRangeError,
    ProductMismatchError,
)
from reviewlens.evaluation import (
    COMPARED_MODES,
    CRITERIA,
    ERROR_RUBRIC,
    REFERENCE_CATEGORY_SCORES,
    CategoryMetrics,
    CriterionAnnotation,
    ErrorAnnotation,
    GoldAttributeSet,
    ProductRun,
    Step,
    aggregate_errors,
    compare_modes,
    f1,
    load_criterion_annotations,
    load_error_annotations,
    load_gold_sets,
    load_run_dir,
    metrics_from_counts,
    render_error_table,
    render_metrics_table,
    render_mode_table,
    round_half_up,
    selection_counts,
    selection_metrics,
)


def attr(key: str, value: str, review_id: str = "r1") -> ExtractedAttribute:
    return ExtractedAttribute(key=key, value=value, review_id=review_id)


class TestF1:
    @pytest.mark.parametrize(
        "precision,recall,expected",
        [
            (0.72, 0.96, 0.82),
            (0.23, 0.79, 0.36),
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            (0.0, 1.0, 0.0),
        ],
    )
    def test_known_values(self, precision, recall, expected):
        assert round_half_up(f1(precision, recall)) == expected

    @pytest.mark.parametrize("precision,recall", [(-0.1, 0.5), (0.5, 1.5), (2.0, 2.0)])
    def test_out_of_range(self, precision, recall):
        with pytest.raises(OutOfRangeError):
            f1(precision, recall)

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        r=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_symmetry_and_bounds(self, p, r):
        score = f1(p, r)
        assert score == f1(r, p)
        assert 0.0 <= score <= 1.0
        assert score <= 2 * min(p, r) + 1e-12


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.665, 0.67),
            (0.664999, 0.66),
            (0.85, 0.85),
            (0.005, 0.01),
            (0.5549999, 0.55),
            (1.0, 1.0),
            (0.0, 0.0),
        ],
    )
    def test_two_places(self, value, expected):
        assert round_half_up(value) == expected

    def test_other_places(self):
        assert round_half_up(0.12345, 4) == 0.1235
        assert round_half_up(7.5, 0) == 8.0


# Independent oracle: plain set intersection over (key, value) pairs.
def oracle_metrics(predicted_pairs: set, gold_pairs: set) -> tuple[float, float, float]:
    tp = len(predicted_pairs & gold_pairs)
    precision = tp / len(predicted_pairs) if predicted_pairs else 0.0
    recall = tp / len(gold_pairs) if gold_pairs else 1.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


class TestSelectionMetrics:
    def test_perfect_match(self):
        predicted = [attr("color", "red"), attr("size", "XL")]
        gold = GoldAttributeSet("p", "r", gold={("color", "red"), ("size", "XL")})
        metrics = selection_metrics(predicted, gold)
        assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)

    def test_extra_prediction_halves_precision(self):
        predicted = [attr("color", "red"), attr("mood", "happy")]
        gold = GoldAttributeSet("p", "r", gold={("color", "red")})
        metrics = selection_metrics(predicted, gold)
        assert metrics.precision == 0.5
        assert metrics.recall == 1.0
        assert math.isclose(metrics.f1, 2 / 3)

    def test_both_empty(self):
        metrics = selection_metrics([], GoldAttributeSet("p", "r"))
        assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 1.0, 0.0)

    def test_gold_normalizes_keys_and_values(self):
        gold = GoldAttributeSet("p", "r", gold={(" Bowl Capacity ", " 5 quarts ")})
        assert gold.gold == frozenset({(normalize_key("Bowl Capacity"), "5 quarts")})
        metrics = selection_metrics([attr("bowl_capacity", "5 quarts")], gold)
        assert metrics.f1 == 1.0

    def test_duplicate_predictions_collapse(self):
        predicted = [attr("color", "red", "r1"), attr("color", "red", "r2")]
        gold = GoldAttributeSet("p", "r", gold={("color", "red")})
        metrics = selection_metrics(predicted, gold)
        assert (metrics.precision, metrics.recall) == (1.0, 1.0)

    def test_randomized_against_oracle(self):
        rng = random.Random(7)
        keys = ["color", "size", "weight", "grip", "cord", "motor"]
        values = ["red", "XL", "2 kg", "soft", "long", "strong"]
        for _ in range(100):
            predicted_pairs = {
                (rng.choice(keys), rng.choice(values)) for _ in range(rng.randint(0, 8))
            }
            gold_pairs = {
                (rng.choice(keys), rng.choice(values)) for _ in range(rng.randint(0, 8))
            }
            predicted = [attr(k, v) for k, v in sorted(predicted_pairs)]
            metrics = selection_metrics(predicted, GoldAttributeSet("p", "r", gold=gold_pairs))
            expected = oracle_metrics(predicted_pairs, gold_pairs)
            assert math.isclose(metrics.precision, expected[0])
            assert math.isclose(metrics.recall, expected[1])
            assert math.isclose(metrics.f1, expected[2])

    def test_counts_and_pooled_metrics(self):
        predicted = {("a", "1"), ("b", "2")}
        gold = {("a", "1"), ("c", "3")}
        assert selection_counts(predicted, gold) == (1, 1, 1)
        pooled = metrics_from_counts(5, 0, 0)
        assert (pooled.precision, pooled.recall, pooled.f1) == (1.0, 1.0, 1.0)
        empty = metrics_from_counts(0, 0, 0)
        assert (empty.precision, empty.recall, empty.f1) == (0.0, 1.0, 0.0)


class TestCategoryMetricsValidation:
    def test_range_enforced(self):
        with pytest.raises(OutOfRangeError):
            CategoryMetrics(precision=1.2, recall=0.5, f1=0.6)


class TestAnnotations:
    def test_error_annotation_rejects_unknown_category(self):
        with pytest.raises(DataFormatError):
            ErrorAnnotation(
                product_id="p",
                step=Step.EXTRACTION,
                error_category="made_up_label",
                review_id="r",
            )

    def test_rubric_is_closed_and_complete(self):
        assert set(ERROR_RUBRIC) == set(Step)
        assert "opinion_not_filtered" in ERROR_RUBRIC[Step.EXTRACTION]
        assert "misclassified_partial" in ERROR_RUBRIC[Step.COMPARISON]
        assert "incorrect_splitting" in ERROR_RUBRIC[Step.GROUPING]
        for labels in ERROR_RUBRIC.values():
            assert "other" in labels

    def test_aggregate_counts_and_order(self):
        annotations = [
            ErrorAnnotation("p", Step.GROUPING, "missing_category", review_id="r1"),
            ErrorAnnotation("p", Step.EXTRACTION, "omitted_attribute", review_id="r2"),
            ErrorAnnotation("p", Step.EXTRACTION, "omitted_attribute", review_id="r3"),
            ErrorAnnotation("p", Step.EXTRACTION, "incorrect_extraction", review_id="r4"),
        ]
        counts = aggregate_errors(annotations)
        assert list(counts.keys()) == [
            (Step.EXTRACTION, "incorrect_extraction"),
            (Step.EXTRACTION, "omitted_attribute"),
            (Step.GROUPING, "missing_category"),
        ]
        assert counts[(Step.EXTRACTION, "omitted_attribute")] == 2
        assert sum(counts.values()) == len(annotations)

    def test_criterion_annotation_validation(self):
        good = CriterionAnnotation("p", "full", "detail_retention", "missed the wattage")
        assert good.mode == "full"
        with pytest.raises(DataFormatError):
            CriterionAnnotation("p", "turbo", "detail_retention", "x")
        with pytest.raises(DataFormatError):
            CriterionAnnotation("p", "full", "vibes", "x")


class TestCompareModes:
    def test_corpus_hand_count(self, testdata_dir):
        annotations = load_criterion_annotations(testdata_dir / "criteria.jsonl")
        mixer_annotations = [a for a in annotations if a.product_id == "app-mixer-001"]
        table = compare_modes("app-mixer-001", mixer_annotations)
        assert set(table) == set(CRITERIA)
        for row in table.values():
            assert set(row) == set(COMPARED_MODES)
        assert table["product_focus"]["full"] == 1
        assert table["detail_retention"]["baseline"] == 2
        assert table["correct_categorization"]["baseline"] == 2
        assert table["opinion_exclusion"]["baseline"] == 1
        assert table["correct_categorization"]["ablated"] == 1
        assert table["detail_retention"]["ablated"] == 1
        total = sum(count for row in table.values() for count in row.values())
        assert total == len(mixer_annotations)

    def test_mismatched_annotation_rejected(self):
        annotation = CriterionAnnotation("other-product", "full", "detail_retention", "x")
        with pytest.raises(ProductMismatchError):
            compare_modes("p1", [annotation])


class TestLoaders:
    def test_load_error_annotations(self, testdata_dir):
        annotations = load_error_annotations(testdata_dir / "annotations.jsonl")
        assert len(annotations) == 7
        counts = aggregate_errors(annotations)
        assert counts[(Step.EXTRACTION, "omitted_attribute")] == 2
        assert counts[(Step.COMPARISON, "misclassified_missing")] == 1

    def test_error_loader_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"product_id": "p", "review_id": "r", "step": "Extraction", "error_category": "nope"}\n'
        )
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:1"):
            load_error_annotations(path)

    def test_error_loader_reports_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"product_id": "p"}\n')
        with pytest.raises(DataFormatError, match="missing field"):
            load_error_annotations(path)

    def test_error_loader_rejects_broken_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:1"):
            load_error_annotations(path)

    def test_load_gold_sets(self, testdata_dir):
        gold = load_gold_sets(testdata_dir / "gold.json")
        assert ("app-mixer-001", "mix-r1") in gold
        assert gold[("app-mixer-001", "mix-r3")].gold == frozenset({("weight", "12 pounds")})
        assert gold[("bty-serum-002", "ser-r5")].gold == frozenset()

    def test_run_dir_manifest_of_another_product_rejected(self, tmp_path):
        """A manifest vouches for the product its directory names; nothing
        else in the directory is read to check it."""
        manifest = tmp_path / "p1" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text(json.dumps({"product_id": "p1", "mode": "full"}))
        assert load_run_dir(tmp_path) == {"p1": ProductRun("full", False, None)}
        manifest.write_text(json.dumps({"product_id": "p2", "mode": "full"}))
        with pytest.raises(DataFormatError) as refused:
            load_run_dir(tmp_path)
        assert str(refused.value) == f"{manifest}: product_id: 'p2' is not its directory's name 'p1'"

    def test_gold_loader_rejects_duplicate_review(self, tmp_path):
        path = tmp_path / "gold.json"
        path.write_text(
            json.dumps(
                {
                    "products": [
                        {
                            "product_id": "p",
                            "reviews": [
                                {"review_id": "r1", "gold": []},
                                {"review_id": "r1", "gold": []},
                            ],
                        }
                    ]
                }
            )
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            load_gold_sets(path)


class TestReferenceScores:
    def test_shape(self):
        assert len(REFERENCE_CATEGORY_SCORES) == 9
        for category, precision, recall, reported_f1 in REFERENCE_CATEGORY_SCORES:
            assert isinstance(category, str)
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= recall <= 1.0
            assert 0.0 <= reported_f1 <= 1.0


class TestTables:
    def test_metrics_table(self):
        rows = [("Appliances", CategoryMetrics(precision=0.41, recall=0.84, f1=0.551))]
        text = render_metrics_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["Category", "Precision", "Recall", "F1"]
        assert set(lines[1]) <= {"-", " "}
        assert "0.55" in lines[2]
        assert text.endswith("\n")

    def test_error_table(self):
        counts = aggregate_errors(
            [ErrorAnnotation("p", Step.EXTRACTION, "omitted_attribute")]
        )
        text = render_error_table(counts)
        assert "Extraction" in text
        assert "omitted_attribute" in text
        assert text.splitlines()[0].split() == ["Step", "Error", "Count"]

    def test_mode_table(self):
        table = {c: {m: 0 for m in COMPARED_MODES} for c in CRITERIA}
        table["detail_retention"]["baseline"] = 3
        text = render_mode_table(table)
        header = text.splitlines()[0].split()
        assert header == ["Criterion", "Full", "Baseline", "Ablated"]
        assert any("detail_retention" in line and "3" in line for line in text.splitlines())
