"""Stage four: deterministic merge, ordering, rendering, report parsing.

Holds the brute-force structuring oracle the acceptance suite reuses: an
independent reimplementation of merge-and-order semantics built from plain
dicts and sorts, checked against build_report on random inputs.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.domain import (
    OTHER_CATEGORY,
    ComparedAttribute,
    ComparisonStatus,
    ExtractedAttribute,
    canonical_json,
)
from reviewlens.errors import MalformedOutputError
from reviewlens.llm_json import load_json_object
from reviewlens.structuring import (
    ReportFormat,
    build_report,
    merge_insights,
    parse_report_sections,
    render_report,
)


def compared(
    key: str,
    value: str,
    review_id: str,
    status: ComparisonStatus = ComparisonStatus.MISSING,
    justification: str = "",
) -> ComparedAttribute:
    return ComparedAttribute(
        attribute=ExtractedAttribute(key=key, value=value, review_id=review_id),
        status=status,
        justification=justification,
    )


class TestMergeInsights:
    def test_identity_is_key_and_status(self):
        items = [
            compared("color", "red", "r1", ComparisonStatus.MISSING),
            compared("color", "red", "r2", ComparisonStatus.CONTRADICTORY, "says silver"),
        ]
        insights = merge_insights(items)
        assert len(insights) == 2
        assert {(i.key, i.status) for i in insights} == {
            ("color", ComparisonStatus.MISSING),
            ("color", ComparisonStatus.CONTRADICTORY),
        }

    def test_values_dedupe_first_seen_order(self):
        items = [
            compared("color", "red", "r1"),
            compared("color", "crimson", "r2"),
            compared("color", "red", "r3"),
        ]
        (insight,) = merge_insights(items)
        assert insight.values == ("red", "crimson")

    def test_evidence_sorted_unique(self):
        items = [
            compared("color", "red", "r9"),
            compared("color", "red", "r2"),
            compared("color", "red", "r9"),
        ]
        (insight,) = merge_insights(items)
        assert insight.evidence == ("r2", "r9")

    def test_justifications_keep_order_and_repeats(self):
        items = [
            compared("battery", "8 h", "r1", ComparisonStatus.MATCHING, "stated"),
            compared("battery", "8 h", "r2", ComparisonStatus.MATCHING, "   "),
            compared("battery", "8 h", "r3", ComparisonStatus.MATCHING, "stated"),
        ]
        (insight,) = merge_insights(items)
        assert insight.justifications == ("stated", "stated")

    def test_empty_input(self):
        assert merge_insights([]) == []


class TestBuildReport:
    def test_all_sections_present_even_when_empty(self):
        report = build_report([], {}, product_id="p1")
        assert list(report.sections()) == list(ComparisonStatus)
        assert all(groups == {} for groups in report.sections().values())

    def test_unassigned_key_lands_in_other(self):
        insights = merge_insights([compared("scent", "citrus", "r1"), compared("color", "red", "r1")])
        report = build_report(insights, {"color": "Appearance"}, product_id="p1")
        section = report.sections()[ComparisonStatus.MISSING]
        assert list(section) == ["Appearance", OTHER_CATEGORY]
        assert [i.key for i in section[OTHER_CATEGORY]] == ["scent"]

    @pytest.mark.parametrize("label", ["", "  "], ids=["empty", "spaces"])
    def test_blank_label_is_refused(self, label):
        insights = merge_insights([compared("color", "red", "r1")])
        with pytest.raises(ValueError, match="color: category must be non-empty"):
            build_report(insights, {"color": label}, product_id="p1")

    def test_orderings(self):
        assignment = {"zeta": "Bravo", "alpha": "Bravo", "mid": "Alpha"}
        insights = merge_insights(
            [
                compared("zeta", "1", "r1"),
                compared("mid", "2", "r2"),
                compared("alpha", "3", "r3"),
            ]
        )
        report = build_report(insights, assignment, product_id="p1")
        section = report.sections()[ComparisonStatus.MISSING]
        assert list(section) == ["Alpha", "Bravo"]
        bravo = section["Bravo"]
        assert [i.key for i in bravo] == ["alpha", "zeta"]

    def test_input_order_does_not_matter(self):
        assignment = {"a": "X", "b": "Y"}
        insights = merge_insights([compared("a", "1", "r1"), compared("b", "2", "r2")])
        forward = build_report(insights, assignment, product_id="p1")
        backward = build_report(list(reversed(insights)), assignment, product_id="p1")
        assert forward.to_dict() == backward.to_dict()


class TestRenderReport:
    def test_json_is_canonical_body_bytes(self):
        insights = merge_insights([compared("color", "red", "r1")])
        report = build_report(insights, {}, product_id="p1")
        assert render_report(report, ReportFormat.JSON) == canonical_json(report.to_dict()).encode("utf-8")

    def test_markdown_layout(self):
        insights = merge_insights(
            [compared("color", "red", "r1", ComparisonStatus.CONTRADICTORY, "says silver")]
        )
        report = build_report(insights, {"color": "Appearance"}, product_id="p1")
        text = render_report(report, ReportFormat.MARKDOWN).decode("utf-8")
        assert "# Listing insight report: p1" in text
        assert "## Contradictory" in text
        assert "### Appearance" in text
        assert "- **color** = red" in text
        assert "  - evidence: r1" in text
        assert "  - note: says silver" in text
        assert text.count("*(no entries)*") == 3

    def test_byte_stability(self):
        insights = merge_insights([compared("color", "red", "r1")])
        report = build_report(insights, {}, product_id="p1")
        again = build_report(insights, {}, product_id="p1")
        for fmt in ReportFormat:
            assert render_report(report, fmt) == render_report(again, fmt)


# ---------------------------------------------------------------------------
# Brute-force oracle: reimplements the structuring semantics with nothing but
# dict/sort primitives so the real pipeline can be checked against it.
# ---------------------------------------------------------------------------

def brute_force_body(
    items: list[ComparedAttribute],
    mapping: dict[str, str],
    product_id: str,
) -> dict:
    merged: dict[tuple, dict] = {}
    for item in items:
        identity = (item.attribute.key, item.status)
        slot = merged.setdefault(
            identity, {"values": [], "evidence": [], "justifications": []}
        )
        if item.attribute.value not in slot["values"]:
            slot["values"].append(item.attribute.value)
        if item.attribute.review_id not in slot["evidence"]:
            slot["evidence"].append(item.attribute.review_id)
        if item.justification.strip():
            slot["justifications"].append(item.justification)

    sections = []
    for status in ComparisonStatus:
        categories_here: dict[str, list] = {}
        for (key, item_status), slot in merged.items():
            if item_status is not status:
                continue
            category = mapping.get(key, OTHER_CATEGORY)
            categories_here.setdefault(category, []).append(
                {
                    "attribute": key,
                    "values": list(slot["values"]),
                    "status": status.value,
                    "category": category,
                    "evidence": sorted(set(slot["evidence"])),
                    "justifications": list(slot["justifications"]),
                }
            )
        sections.append(
            {
                "status": status.value,
                "categories": [
                    {
                        "category": category,
                        "insights": sorted(rows, key=lambda r: r["attribute"]),
                    }
                    for category, rows in sorted(categories_here.items())
                ],
            }
        )
    return {"product_id": product_id, "sections": sections}


def random_compared_set(rng: random.Random, max_size: int = 30) -> list[ComparedAttribute]:
    keys = ["color", "weight", "battery", "size", "material", "finish", "grip", "cord"]
    values = ["red", "2 kg", "8 h", "XL", "steel", "matte", ""]
    statuses = list(ComparisonStatus)
    items = []
    for _ in range(rng.randint(0, max_size)):
        status = rng.choice(statuses)
        justification = rng.choice(["", "  ", "seen in text", "quoted from listing"])
        if status is ComparisonStatus.CONTRADICTORY and not justification.strip():
            justification = "listing disagrees"
        value = rng.choice(values) or "fallback"
        items.append(
            compared(rng.choice(keys), value, f"r{rng.randint(1, 9)}", status, justification)
        )
    return items


def random_mapping(rng: random.Random, items: list[ComparedAttribute]) -> dict[str, str]:
    categories = ["Appearance", "Performance", "Build", "Power"]
    mapping = {}
    for item in items:
        if rng.random() < 0.8:
            mapping[item.attribute.key] = rng.choice(categories)
    return mapping


class TestAgainstBruteForce:
    def test_randomized_agreement(self):
        rng = random.Random(1441)
        for _ in range(60):
            items = random_compared_set(rng)
            mapping = random_mapping(rng, items)
            report = build_report(
                merge_insights(items),
                mapping,
                product_id="pX",
            )
            assert report.to_dict() == brute_force_body(items, mapping, "pX")


class TestParseReportSections:
    def payload(self) -> dict:
        return {
            "sections": [
                {
                    "status": "Missing",
                    "categories": [
                        {
                            "category": "Appearance",
                            "insights": [
                                {
                                    "attribute": "Color",
                                    "value": "red",
                                    "evidence": ["r1"],
                                    "justification": "never mentioned",
                                }
                            ],
                        }
                    ],
                }
            ]
        }

    def test_round_trip_shapes(self):
        insights, assignment = parse_report_sections(json.dumps(self.payload()), ["r1"])
        (insight,) = insights
        assert insight.key == "color"
        assert insight.values == ("red",)
        assert insight.evidence == ("r1",)
        assert insight.justifications == ("never mentioned",)
        assert assignment.get("color", OTHER_CATEGORY) == "Appearance"

    def test_real_reports_round_trip(self):
        items = [
            compared("color", "red", "r1", ComparisonStatus.CONTRADICTORY, "says silver"),
            compared("weight", "2 kg", "r2"),
        ]
        assignment = {"color": "Appearance", "weight": "Build"}
        original = build_report(merge_insights(items), assignment, product_id="p1")
        text = render_report(original, ReportFormat.JSON).decode("utf-8")
        insights, parsed_assignment = parse_report_sections(text, ["r1", "r2"])
        rebuilt = build_report(insights, parsed_assignment, product_id="p1")
        assert rebuilt.to_dict() == original.to_dict()

    def test_unknown_evidence_dropped_then_row_skipped(self):
        payload = self.payload()
        payload["sections"][0]["categories"][0]["insights"][0]["evidence"] = ["ghost"]
        notes: list[str] = []
        insights, _ = parse_report_sections(json.dumps(payload), ["r1"], diagnostics=notes)
        assert insights == []
        assert any("ghost" in n for n in notes)
        assert any("no valid evidence" in n for n in notes)

    def test_bad_status_section_skipped(self):
        payload = self.payload()
        payload["sections"].insert(0, {"status": "Sideways", "categories": []})
        notes: list[str] = []
        insights, _ = parse_report_sections(json.dumps(payload), ["r1"], diagnostics=notes)
        assert len(insights) == 1
        assert any("Sideways" in n for n in notes)

    def test_plural_value_and_justification_fields(self):
        payload = self.payload()
        row = payload["sections"][0]["categories"][0]["insights"][0]
        del row["value"]
        del row["justification"]
        row["values"] = ["red", "red", "crimson"]
        row["justifications"] = ["a", "", "b"]
        (insight,), _ = parse_report_sections(json.dumps(payload), ["r1"])
        assert insight.values == ("red", "crimson")
        assert insight.justifications == ("a", "b")

    def test_merge_on_key_status_first_category_wins(self):
        payload = self.payload()
        payload["sections"][0]["categories"].append(
            {
                "category": "Palette",
                "insights": [
                    {"attribute": "color", "value": "crimson", "evidence": ["r2"]}
                ],
            }
        )
        insights, assignment = parse_report_sections(json.dumps(payload), ["r1", "r2"])
        (insight,) = insights
        assert insight.values == ("red", "crimson")
        assert insight.evidence == ("r1", "r2")
        assert assignment.get("color", OTHER_CATEGORY) == "Appearance"

    @pytest.mark.parametrize("text", ["not json", "{}", '{"sections": "nope"}'])
    def test_unusable_payload_rejected(self, text):
        with pytest.raises(MalformedOutputError):
            parse_report_sections(text, ["r1"])

    @pytest.mark.parametrize(
        "where, broken, note",
        [
            ("section", "not a section", "report section is not an object; skipped"),
            ("section", {"status": "Matching"}, "report section Matching lacks categories; skipped"),
            ("group", ["not a group"], "category group is not an object; skipped"),
            (
                "group",
                {"category": " Build ", "insights": {"attribute": "size"}},
                "category 'Build' lacks an insights array; skipped",
            ),
            ("row", 7, "insight row is not an object; skipped"),
            (
                "row",
                {"attribute": None, "value": "L", "evidence": ["r1"]},
                "insight row lacks an attribute name; skipped",
            ),
            (
                "row",
                {"attribute": " - _ ", "value": "L", "evidence": ["r1"]},
                "insight attribute ' - _ ' normalizes to empty; skipped",
            ),
            (
                "row",
                {"attribute": "Size", "values": ["", " ", None], "evidence": ["r1"]},
                "insight 'size' has no usable values; skipped",
            ),
            (
                "row",
                {"attribute": "Size", "value": "L", "evidence": [None, {"id": "r1"}]},
                "insight 'size' has no valid evidence; skipped",
            ),
        ],
        ids=[
            "section-not-object",
            "section-without-categories",
            "group-not-object",
            "group-without-insights",
            "row-not-object",
            "row-without-attribute",
            "row-attribute-normalizes-empty",
            "row-without-values",
            "row-evidence-not-scalar",
        ],
    )
    def test_malformed_shape_skipped_with_its_note(self, where, broken, note):
        """One malformed shape ahead of the valid row: it is skipped with
        exactly its note, and the valid row parses as it does alone."""
        payload = self.payload()
        section = payload["sections"][0]
        container = {
            "section": payload["sections"],
            "group": section["categories"],
            "row": section["categories"][0]["insights"],
        }[where]
        container.insert(0, broken)
        notes: list[str] = []
        parsed = parse_report_sections(json.dumps(payload), ["r1"], diagnostics=notes)
        assert notes == [note]
        assert parsed == parse_report_sections(json.dumps(self.payload()), ["r1"])


class TestLoadJsonObject:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty model output"),
            (" \n ", "empty model output"),
            (None, "empty model output"),
            ('{"sections": [}', "invalid JSON in model output"),
            ('```json\n{"sections": [}\n```', "invalid JSON in model output"),
            ('```json\n[{"sections": []}]\n```', "model output is valid JSON but not an object"),
        ],
        ids=["empty", "blank", "not-text", "invalid", "fenced-invalid", "fenced-array"],
    )
    def test_unrecoverable_output_raises(self, text, message):
        with pytest.raises(MalformedOutputError, match=message):
            load_json_object(text)

    def test_fence_and_prose_are_stripped(self):
        assert load_json_object('Here:\n```json\n{"a": 1}\n```\nDone.') == {"a": 1}
        assert load_json_object('Sure! {"a": [1]} Hope that helps.') == {"a": [1]}


compared_items = st.lists(
    st.builds(
        compared,
        st.sampled_from(["color", "weight", "battery"]),
        st.sampled_from(["red", "2 kg", "8 h"]),
        st.sampled_from(["r1", "r2", "r3", "r4"]),
        st.sampled_from(list(ComparisonStatus)),
        st.sampled_from(["", "  ", "seen in text", "quoted from listing"]),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(compared_items)
def test_both_report_paths_merge_alike(items):
    """A model report carrying one row per compared attribute merges into the
    same insights as the full mode's merge of those attributes."""
    payload = {
        "sections": [
            {
                "status": item.status.value,
                "categories": [
                    {
                        "category": "General",
                        "insights": [
                            {
                                "attribute": item.attribute.key,
                                "value": item.attribute.value,
                                "evidence": [item.attribute.review_id],
                                "justification": item.justification,
                            }
                        ],
                    }
                ],
            }
            for item in items
        ]
    }
    parsed, _ = parse_report_sections(json.dumps(payload), ["r1", "r2", "r3", "r4"])

    def rows(insights):
        return [(i.key, i.status, i.values, i.evidence, i.justifications) for i in insights]

    assert rows(parsed) == rows(merge_insights(items))


def test_structured_report_round_trips_via_dict():
    items = [compared("color", "red", "r1", ComparisonStatus.MATCHING, "stated")]
    report = build_report(
        merge_insights(items),
        {"color": "Appearance"},
        product_id="p1",
    )
    payload = report.to_dict()
    assert "call_stats" not in payload
    assert [section["status"] for section in payload["sections"]] == [s.value for s in ComparisonStatus]


def test_report_refuses_a_repeated_key_and_status():
    (insight,) = merge_insights([compared("scent", "citrus", "r1")])
    with pytest.raises(ValueError, match="scent is reported twice as Missing"):
        build_report(
            [insight, dataclasses.replace(insight, values=("lemon",))],
            {},
            product_id="p1",
        )
