"""Core domain types: key normalization, the status taxonomy, canonical
serialization, and dataset loading."""

from __future__ import annotations

import json
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reviewlens.domain import (
    OTHER_CATEGORY,
    REPORT_STATUS_ORDER,
    CallStats,
    CategoryAssignment,
    ComparisonStatus,
    ExtractedAttribute,
    ProductRecord,
    Review,
    StructuredReport,
    canonical_json,
    canonical_json_bytes,
    load_product_records,
    normalize_key,
    parse_status,
    render_status,
)
from reviewlens.errors import DataFormatError, EmptyKeyError, UnknownStatusError
from reviewlens.structuring import build_report


class TestNormalizeKey:
    def test_spec_example(self):
        assert normalize_key("  Colour—Red ") == "colour_red"

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Battery Life", "battery_life"),
            ("battery_life", "battery_life"),
            ("BATTERY   LIFE", "battery_life"),
            ("Bowl-Material", "bowl_material"),
            ("Café Strength", "cafe_strength"),
            ("weight__per__bud", "weight_per_bud"),
            ("_edge_", "edge"),
            ("5.3", "5.3"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_key(raw) == expected

    @pytest.mark.parametrize("raw", ["", "   ", "——", "___"])
    def test_empty_results_rejected(self, raw):
        with pytest.raises(EmptyKeyError):
            normalize_key(raw)

    @given(st.text(min_size=0, max_size=40))
    def test_idempotent_and_shape(self, raw):
        try:
            once = normalize_key(raw)
        except EmptyKeyError:
            return
        assert normalize_key(once) == once
        assert once == once.strip("_").lower()
        assert "__" not in once
        assert " " not in once
        assert once.isascii()
        assert not any(unicodedata.combining(ch) for ch in once)


class TestStatusTaxonomy:
    @pytest.mark.parametrize(
        "label, status",
        [
            ("Missing", ComparisonStatus.MISSING),
            ("missing", ComparisonStatus.MISSING),
            ("  MATCHING  ", ComparisonStatus.MATCHING),
            ("Contradictory", ComparisonStatus.CONTRADICTORY),
            ("Partially-matching", ComparisonStatus.PARTIALLY_MATCHING),
            ("partially matching", ComparisonStatus.PARTIALLY_MATCHING),
            ("PARTIAL", ComparisonStatus.PARTIALLY_MATCHING),
        ],
    )
    def test_accepted_labels(self, label, status):
        assert parse_status(label) is status

    @pytest.mark.parametrize("label", ["Present", "kind of", "", "match!", None, 3])
    def test_rejections(self, label):
        with pytest.raises(UnknownStatusError):
            parse_status(label)

    def test_render_round_trip(self):
        for status in ComparisonStatus:
            assert parse_status(render_status(status)) is status

    def test_report_order_actionable_first(self):
        assert REPORT_STATUS_ORDER == (
            ComparisonStatus.MISSING,
            ComparisonStatus.CONTRADICTORY,
            ComparisonStatus.PARTIALLY_MATCHING,
            ComparisonStatus.MATCHING,
        )


class TestCanonicalJson:
    def test_sorted_keys_trailing_newline(self):
        text = canonical_json({"b": 1, "a": [2, 1]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_non_ascii_preserved(self):
        assert "café" in canonical_json({"k": "café"})

    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
            max_size=6,
        )
    )
    def test_bytes_stable_under_key_order(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert canonical_json_bytes(payload) == canonical_json_bytes(reordered)
        assert json.loads(canonical_json(payload)) == payload


class TestDataclasses:
    def test_extracted_attribute_requires_normalized_key(self):
        with pytest.raises(ValueError):
            ExtractedAttribute(key="Bowl Material", value="steel", review_id="r1")

    def test_review_rating_bounds(self):
        with pytest.raises(ValueError):
            Review("r1", "text", rating=6)
        assert Review("r1", "text", rating=None).rating is None

    def test_duplicate_review_ids_rejected(self):
        with pytest.raises(ValueError):
            ProductRecord(
                product_id="p",
                title="t",
                category="c",
                seller_description="d",
                reviews=[Review("r1", "a"), Review("r1", "b")],
            )

    def test_category_assignment_fallback(self):
        assignment = CategoryAssignment(mapping={"color": "Appearance"})
        assert assignment.category_for("color") == "Appearance"
        assert assignment.category_for("unseen") == OTHER_CATEGORY

    def test_call_stats_totals_and_round_trip(self):
        stats = CallStats(extraction_calls=8, comparison_calls=8, grouping_calls=1, cache_hits=3, retries=2)
        assert stats.total_calls == 17
        with pytest.raises(ValueError):
            CallStats(extraction_calls=-1)

    def test_report_requires_all_sections(self):
        report = build_report([], CategoryAssignment(), product_id="p")
        assert [s.status for s in report.sections] == list(REPORT_STATUS_ORDER)
        with pytest.raises(ValueError):
            StructuredReport(product_id="p", sections=report.sections[:2])

    def test_report_round_trip_without_stats(self):
        report = build_report([], CategoryAssignment(), product_id="p")
        body = report.to_dict()
        assert "call_stats" not in body
        rebuilt = StructuredReport.from_dict(body)
        assert rebuilt == report


class TestDatasetIO:
    def test_corpus_loads(self, products):
        assert len(products) == 3
        assert {p.category for p in products} == {"Appliances", "Beauty", "Electronics"}

    def test_position_in_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"product_id": "x"}]), encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"products\[0\]"):
            load_product_records(bad)

    def test_not_json(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_product_records(bad)
